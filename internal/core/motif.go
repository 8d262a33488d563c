package core

import (
	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
)

// RunMotif executes the distributed constrained-motif detection: does
// g contain a connected spec.K-vertex subgraph whose colors satisfy
// spec? The answer is identical on all ranks and matches
// mld.DetectMotif with the same seed bit-for-bit (the constrained
// assignment is a pure function of the seed and the graph's labels, so
// ranks rebuild it locally — randomness costs no communication). The
// halo/all-reduce schedule is the scan evaluator's with a single
// weight stratum.
func RunMotif(world *comm.Comm, g *graph.Graph, spec *mld.MotifSpec, cfg Config) (bool, error) {
	if err := spec.Validate(); err != nil {
		return false, err
	}
	cfg.K = spec.K
	if cfg.K > g.NumVertices() {
		return false, nil
	}
	p, err := buildPlan(world, g, cfg, mld.LevelSlabs(cfg.K))
	if err != nil {
		return false, err
	}
	rounds := cfg.mldOptions().RoundsFor(cfg.K)
	for round := 0; round < rounds; round++ {
		if err := p.checkCtx(); err != nil {
			return false, err
		}
		p.span(obs.RoundName, round, "round")
		p.rec.Add(obs.Rounds, 1)
		a := mld.NewMotifAssignment(g, spec, cfg.Seed, round)
		total, err := p.motifRoundLocal(a, cfg.K)
		if err != nil {
			p.endSpan()
			return false, err
		}
		global := world.AllreduceXor([]uint64{uint64(total)})
		p.endSpan()
		if global[0] != 0 {
			return true, nil
		}
	}
	return false, nil
}

// motifRoundLocal runs this rank's share of one round and returns its
// partial field total. The DP is the scan recurrence without the
// weight axis: levels jj ≥ 2 combine a local piece P(v,j') with
// neighbor pieces P(u,jj−j'), so every finished level below the last is
// halo-exchanged before the next one reads it (level 1 is the base
// row, which each rank fills at ghost slots locally). The local piece
// does not depend on u, so the join is factored: per (v, j') the
// neighbor pieces are summed with the constant-multiply axpy and
// multiplied into P(v,jj) by one Hadamard product. With a configured
// context the per-step synchronization doubles as the cancellation
// point (see syncStep).
func (p *plan) motifRoundLocal(a *mld.Assignment, k int) (gf.Elem, error) {
	n2 := p.cfg.N2
	iters := uint64(1) << uint(k)
	numPhases := (iters + uint64(n2) - 1) / uint64(n2)
	steps := (numPhases + uint64(p.groups) - 1) / uint64(p.groups)

	tab := make([][]gf.Elem, k+1)
	for jj := 1; jj <= k; jj++ {
		tab[jj] = p.arena.Grab(p.nSlots * n2)
	}
	sum := p.arena.Grab(n2) // the neighbor sum of one (vertex, split)
	defer func() {
		p.arena.Put(tab[1:]...)
		p.arena.Put(sum)
	}()
	var total gf.Elem
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
			elemSec, edgeSec := p.kernelCosts(k + 1)
			acc := sum[:nb]
			// Base case at every slot (owned and ghost) — local.
			for sl := 0; sl < p.nSlots; sl++ {
				a.FillBase(tab[1][sl*n2:sl*n2+nb], p.vertOf[sl], q0, p.cfg.NoGray)
			}
			for jj := 2; jj <= k; jj++ {
				buf := tab[jj]
				for i := range buf {
					buf[i] = 0
				}
			}
			p.advanceCompute(elemSec * float64(p.nSlots) * float64(nb))
			p.countDPOps(float64(p.nSlots) * float64(nb))
			for jj := 2; jj <= k; jj++ {
				p.span(obs.LevelName, jj, "level")
				p.rec.Add(obs.Levels, 1)
				var kernelElems, hashes float64
				for _, v := range p.owned {
					sv := int(p.slotOf[v])
					iLo, iHi := sv*n2, sv*n2+nb
					nbrs := p.g.Neighbors(v)
					for jp := 1; jp < jj; jp++ {
						local := tab[jp][iLo:iHi]
						if !gf.AnyNonZero(local) {
							skipped += int64(len(nbrs))
							continue
						}
						// S = Σ_u r·P(u,jj−jp), charged like the per-edge
						// triple product it replaces: one skip per dead
						// (v, u, jp) cell, one width-nb op per live one.
						live := false
						for _, u := range nbrs {
							su := int(p.slotOf[u])
							piece := tab[jj-jp][su*n2 : su*n2+nb]
							if !gf.AnyNonZero(piece) {
								skipped++
								continue
							}
							r := gf.Elem(1)
							if !p.cfg.NoFingerprints {
								r = a.MotifCoeff(u, v, jj, jp)
							}
							hashes++
							gf.MulSlice16(acc, piece, r)
							kernelElems += float64(nb)
							live = true
						}
						if live {
							// P(v,jj) += P(v,jp) ⊙ S
							gf.MulHadamardAccum(tab[jj][iLo:iHi], local, acc)
							clear(acc)
						}
					}
				}
				p.advanceCompute(elemSec*kernelElems + edgeSec*hashes)
				p.countDPOps(kernelElems)
				// Halo for this level: later levels read every earlier
				// level at neighbor vertices. The final level is only
				// summed locally.
				if jj < k {
					p.exchange(tab[jj], n2, nb, jj, jj)
				}
				p.endSpan()
			}
			for _, v := range p.owned {
				sv := int(p.slotOf[v])
				for q := 0; q < nb; q++ {
					total ^= tab[k][sv*n2+q]
				}
			}
			p.advanceCompute(elemSec * float64(len(p.owned)) * float64(nb))
			p.countDPOps(float64(len(p.owned)) * float64(nb))
			p.endSpan()
		}
		if err := p.syncStep(); err != nil {
			p.rec.Add(obs.CellsSkipped, skipped)
			return 0, err
		}
		p.reportProgress(s, numPhases)
	}
	p.rec.Add(obs.CellsSkipped, skipped)
	return total, nil
}
