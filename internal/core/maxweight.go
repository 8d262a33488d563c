package core

import (
	"fmt"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
)

// RunMaxWeightPath is the distributed form of mld.MaxWeightPath: the
// maximum total vertex weight over simple k-paths, evaluated with the
// weight-indexed path DP under MIDAS's phase-group schedule. All ranks
// call collectively and receive the same (weight, found) answer.
func RunMaxWeightPath(world *comm.Comm, g *graph.Graph, cfg Config) (int64, bool, error) {
	if err := mld.ValidateK(cfg.K); err != nil {
		return 0, false, err
	}
	if cfg.K > g.NumVertices() {
		return 0, false, nil
	}
	var maxw int64
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		w := g.Weight(v)
		if w < 0 {
			return 0, false, fmt.Errorf("core: vertex %d has negative weight", v)
		}
		if w > maxw {
			maxw = w
		}
	}
	zmax := int64(cfg.K) * maxw
	p, err := buildPlan(world, g, cfg, mld.WeightSlabs(2, zmax))
	if err != nil {
		return 0, false, err
	}
	best := int64(-1)
	found := false
	rounds := cfg.mldOptions().RoundsFor(cfg.K)
	for round := 0; round < rounds; round++ {
		p.span(obs.RoundName, round, "round")
		p.rec.Add(obs.Rounds, 1)
		a := mld.NewMaxWeightAssignment(g.NumVertices(), cfg.K, cfg.Seed, round)
		totals := p.maxWeightRoundLocal(a, zmax)
		packed := make([]uint64, len(totals))
		for z, t := range totals {
			packed[z] = uint64(t)
		}
		global := world.AllreduceXor(packed)
		p.endSpan()
		for z := len(global) - 1; z >= 0; z-- {
			if global[z] != 0 {
				found = true
				if int64(z) > best {
					best = int64(z)
				}
				break
			}
		}
	}
	if !found {
		return 0, false, nil
	}
	return best, true, nil
}

// maxWeightRoundLocal runs this rank's share of one round of the
// weight-indexed path DP and returns its partial per-weight totals.
func (p *plan) maxWeightRoundLocal(a *mld.Assignment, zmax int64) []gf.Elem {
	k, n2 := p.cfg.K, p.cfg.N2
	iters := uint64(1) << uint(k)
	numPhases := p.phases(k)
	steps := (numPhases + uint64(p.groups) - 1) / uint64(p.groups)
	nz := int(zmax) + 1
	var maxw int64
	for v := int32(0); v < int32(p.g.NumVertices()); v++ {
		if w := p.g.Weight(v); w > maxw {
			maxw = w
		}
	}
	zcap := func(s int) int64 {
		c := int64(s) * maxw
		if c > zmax {
			c = zmax
		}
		return c
	}

	alloc := func() [][]gf.Elem {
		out := make([][]gf.Elem, nz)
		for z := range out {
			out[z] = p.arena.Grab(p.nSlots * n2)
		}
		return out
	}
	prev, cur := alloc(), alloc()
	base := p.arena.Grab(p.nSlots * n2)
	defer func() {
		p.arena.Put(base)
		p.arena.Put(prev...)
		p.arena.Put(cur...)
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
			elemSec, edgeSec := p.kernelCosts(2*nz + 1)
			for sl := 0; sl < p.nSlots; sl++ {
				a.FillBase(base[sl*n2:sl*n2+nb], p.vertOf[sl], q0, p.cfg.NoGray)
			}
			for z := 0; z < nz; z++ {
				buf := prev[z]
				for i := range buf {
					buf[i] = 0
				}
			}
			for sl := 0; sl < p.nSlots; sl++ {
				w := p.g.Weight(p.vertOf[sl])
				copy(prev[w][sl*n2:sl*n2+nb], base[sl*n2:sl*n2+nb])
			}
			p.advanceCompute(elemSec * float64(p.nSlots) * float64(2*nb+k))
			p.countDPOps(float64(p.nSlots) * float64(2*nb+k))
			for j := 2; j <= k; j++ {
				p.span(obs.LevelName, j, "level")
				p.rec.Add(obs.Levels, 1)
				zhi := zcap(j)
				zPrev := zcap(j - 1) // prev is only valid (zeroed/exchanged) up to here
				var kernelElems, hashes float64
				for z := int64(0); z <= zhi; z++ {
					buf := cur[z]
					for i := range buf {
						buf[i] = 0
					}
				}
				for _, v := range p.owned {
					sv := int(p.slotOf[v])
					iLo, iHi := sv*n2, sv*n2+nb
					wi := p.g.Weight(v)
					for _, u := range p.g.Neighbors(v) {
						su := int(p.slotOf[u])
						// One coefficient covers the whole weight column.
						r := gf.Elem(1)
						if !p.cfg.NoFingerprints {
							r = a.EdgeCoeff(u, v, j)
						}
						uLo, uHi := su*n2, su*n2+nb
						hashes++
						for z := wi; z <= zhi && z-wi <= zPrev; z++ {
							src := prev[z-wi][uLo:uHi]
							if !gf.AnyNonZero(src) {
								skipped++
								continue
							}
							gf.MulSlice16(cur[z][iLo:iHi], src, r)
							kernelElems += float64(nb)
						}
					}
					for z := wi; z <= zhi; z++ {
						dst := cur[z][iLo:iHi]
						gf.HadamardInto(dst, dst, base[iLo:iHi])
						kernelElems += float64(nb)
					}
				}
				p.advanceCompute(elemSec*kernelElems + edgeSec*hashes)
				p.countDPOps(kernelElems)
				if j < k {
					for z := int64(0); z <= zhi; z++ {
						p.exchange(cur[z], n2, nb, j, j*nz+int(z))
					}
				}
				p.endSpan()
				prev, cur = cur, prev
			}
			for z := 0; z < nz; z++ {
				buf := prev[z]
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
		p.world.Barrier()
	}
	p.rec.Add(obs.CellsSkipped, skipped)
	return totals
}
