package core

import (
	"fmt"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"

	"github.com/midas-hpc/midas/internal/graph"
)

// ScanConfig extends Config with the weight cap of the scan-statistics
// feasibility table.
type ScanConfig struct {
	Config
	ZMax int64
}

// RunScan executes the distributed scan-statistics evaluation
// (Algorithm 5): it returns the table feas[j][z] (1 ≤ j ≤ cfg.K,
// 0 ≤ z ≤ cfg.ZMax) of connected-subgraph feasibility, identical on all
// ranks. As in the sequential version, each target size j ≥ 3 runs in
// its own 2^j iteration space (DESIGN.md §2), and sizes 1 and 2 are
// read off the vertices and edges (mld.ExactScanRows).
func RunScan(world *comm.Comm, g *graph.Graph, cfg ScanConfig) ([][]bool, error) {
	if err := mld.ValidateK(cfg.K); err != nil {
		return nil, err
	}
	if cfg.ZMax < 0 {
		return nil, fmt.Errorf("core: negative weight cap %d", cfg.ZMax)
	}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if g.Weight(v) < 0 {
			return nil, fmt.Errorf("core: vertex %d has negative weight", v)
		}
	}
	feas := make([][]bool, cfg.K+1)
	for j := 1; j <= cfg.K; j++ {
		feas[j] = make([]bool, cfg.ZMax+1)
	}
	// Sizes 1 and 2 are exact and local: every rank holds g.
	mld.ExactScanRows(g, feas)
	for j := 3; j <= cfg.K && j <= g.NumVertices(); j++ {
		sub := cfg.Config
		sub.K = j
		p, err := buildPlan(world, g, sub, mld.WeightSlabs(j, cfg.ZMax))
		if err != nil {
			return nil, err
		}
		rounds := sub.mldOptions().RoundsFor(j)
		for round := 0; round < rounds; round++ {
			if err := p.checkCtx(); err != nil {
				return nil, err
			}
			p.span(obs.RoundName, round, "round")
			p.rec.Add(obs.Rounds, 1)
			a := mld.NewScanAssignment(g.NumVertices(), j, cfg.Seed, round)
			totals, err := p.scanRoundLocal(a, j, cfg.ZMax)
			if err != nil {
				p.endSpan()
				return nil, err
			}
			packed := make([]uint64, len(totals))
			for z, t := range totals {
				packed[z] = uint64(t)
			}
			global := world.AllreduceXor(packed)
			p.endSpan()
			for z := range global {
				if global[z] != 0 {
					feas[j][z] = true
				}
			}
		}
	}
	return feas, nil
}

// scanRoundLocal runs this rank's share of one round at target size j
// and returns the partial per-weight totals. With a configured context
// the per-step synchronization doubles as the cancellation point (see
// syncStep).
func (p *plan) scanRoundLocal(a *mld.Assignment, j int, zmax int64) ([]gf.Elem, error) {
	n2 := p.cfg.N2
	iters := uint64(1) << uint(j)
	numPhases := (iters + uint64(n2) - 1) / uint64(n2)
	steps := (numPhases + uint64(p.groups) - 1) / uint64(p.groups)
	nz := int(zmax) + 1
	// Mirror the sequential evaluator's capacity bound: a subgraph on s
	// vertices weighs at most s·max_v w(v).
	var maxw int64
	for v := int32(0); v < int32(p.g.NumVertices()); v++ {
		if w := p.g.Weight(v); w > maxw {
			maxw = w
		}
	}
	zcap := func(s int) int {
		c := int64(s) * maxw
		if c > zmax {
			c = zmax
		}
		return int(c)
	}

	tab := make([][][]gf.Elem, j+1)
	for jj := 1; jj <= j; jj++ {
		tab[jj] = make([][]gf.Elem, nz)
		for z := 0; z < nz; z++ {
			tab[jj][z] = p.arena.Grab(p.nSlots * n2)
		}
	}
	base := p.arena.Grab(p.nSlots * n2)
	defer func() {
		p.arena.Put(base)
		for jj := 1; jj <= j; jj++ {
			p.arena.Put(tab[jj]...)
		}
	}()
	totals := make([]gf.Elem, nz)
	var skipped int64

	for s := uint64(0); s < steps; s++ {
		ph := s*uint64(p.groups) + uint64(p.gid)
		if ph < numPhases {
			p.span(obs.PhaseName, int(ph), "phase")
			p.rec.Add(obs.Phases, 1)
			q0 := ph * uint64(n2)
			nb := n2
			if rem := iters - q0; uint64(nb) > rem {
				nb = int(rem)
			}
			elemSec, edgeSec := p.kernelCosts(j*nz + 1)
			for sl := 0; sl < p.nSlots; sl++ {
				a.FillBase(base[sl*n2:sl*n2+nb], p.vertOf[sl], q0, p.cfg.NoGray)
			}
			for jj := 1; jj <= j; jj++ {
				for z := 0; z < nz; z++ {
					buf := tab[jj][z]
					for i := range buf {
						buf[i] = 0
					}
				}
			}
			// Base case at every slot (owned and ghost) — local.
			for sl := 0; sl < p.nSlots; sl++ {
				w := p.g.Weight(p.vertOf[sl])
				if w > zmax {
					continue
				}
				copy(tab[1][w][sl*n2:sl*n2+nb], base[sl*n2:sl*n2+nb])
			}
			p.advanceCompute(elemSec * float64(p.nSlots) * float64(2*nb+j))
			p.countDPOps(float64(p.nSlots) * float64(2*nb+j))
			for jj := 2; jj <= j; jj++ {
				p.span(obs.LevelName, jj, "level")
				p.rec.Add(obs.Levels, 1)
				var kernelElems, hashes float64
				for _, v := range p.owned {
					sv := int(p.slotOf[v])
					iLo, iHi := sv*n2, sv*n2+nb
					for _, u := range p.g.Neighbors(v) {
						su := int(p.slotOf[u])
						uLo, uHi := su*n2, su*n2+nb
						for jp := 1; jp < jj; jp++ {
							jr := jj - jp
							for zp := 0; zp <= zcap(jp); zp++ {
								src1 := tab[jp][zp][iLo:iHi]
								if !gf.AnyNonZero(src1) {
									skipped++
									continue
								}
								var r gf.Elem = 1
								if !p.cfg.NoFingerprints {
									r = a.ScanCoeff(u, v, jj, jp, int64(zp))
								}
								hashes++
								for zr := 0; zr <= zcap(jr) && zp+zr < nz; zr++ {
									src2 := tab[jr][zr][uLo:uHi]
									if !gf.AnyNonZero(src2) {
										skipped++
										continue
									}
									gf.MulHadamardAccumScaled(tab[jj][zp+zr][iLo:iHi], src1, src2, r)
									kernelElems += float64(nb)
								}
							}
						}
					}
				}
				p.advanceCompute(elemSec*kernelElems + edgeSec*hashes)
				p.countDPOps(kernelElems)
				// Halo for this level: later levels read every earlier
				// level at neighbor vertices. The final level is only
				// summed locally.
				if jj < j {
					for z := 0; z < nz; z++ {
						p.exchange(tab[jj][z], n2, nb, jj, jj*nz+z)
					}
				}
				p.endSpan()
			}
			for z := 0; z < nz; z++ {
				buf := tab[j][z]
				for _, v := range p.owned {
					sv := int(p.slotOf[v])
					for q := 0; q < nb; q++ {
						totals[z] ^= buf[sv*n2+q]
					}
				}
			}
			p.advanceCompute(elemSec * float64(nz*len(p.owned)) * float64(nb))
			p.countDPOps(float64(nz*len(p.owned)) * float64(nb))
			p.endSpan()
		}
		if err := p.syncStep(); err != nil {
			p.rec.Add(obs.CellsSkipped, skipped)
			return nil, err
		}
		p.reportProgress(s, numPhases)
	}
	p.rec.Add(obs.CellsSkipped, skipped)
	return totals, nil
}
