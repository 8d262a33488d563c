package core

import (
	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
)

// RunPath executes distributed k-path detection (Algorithms 2 and 3).
// Every rank of the world communicator calls it collectively with the
// same graph and configuration; all ranks return the same answer.
func RunPath(world *comm.Comm, g *graph.Graph, cfg Config) (bool, error) {
	answer, _, err := RunPathProfiled(world, g, cfg)
	return answer, err
}

func validateConfig(g *graph.Graph, cfg Config) error {
	return mld.ValidateK(cfg.K)
}

// pathRoundLocal runs this rank's share of one round's 2^k iterations
// and returns its partial field total. With a configured context the
// per-step synchronization doubles as the cancellation point (see
// syncStep).
func (p *plan) pathRoundLocal(a *mld.Assignment) (gf.Elem, error) {
	k, n2 := p.cfg.K, p.cfg.N2
	iters := uint64(1) << uint(k)
	numPhases := p.phases(k)
	steps := (numPhases + uint64(p.groups) - 1) / uint64(p.groups)

	base := p.arena.Grab(p.nSlots * n2)
	prev := p.arena.Grab(p.nSlots * n2)
	cur := p.arena.Grab(p.nSlots * n2)
	defer p.arena.Put(base, prev, cur)
	var total gf.Elem

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
			elemSec, edgeSec := p.kernelCosts(3)
			// Base case (Algorithm 3 lines 5–7). Ghost base values are
			// computable locally: the assignment is globally derived.
			for s := 0; s < p.nSlots; s++ {
				a.FillBase(base[s*n2:s*n2+nb], p.vertOf[s], q0, p.cfg.NoGray)
			}
			copy(prev, base)
			p.advanceCompute(elemSec * float64(p.nSlots) * float64(nb+k))
			p.countDPOps(float64(p.nSlots) * float64(nb+k))
			levelElems := float64(p.sumDegOwned+len(p.owned)) * float64(nb)
			levelCost := elemSec*levelElems + edgeSec*float64(p.sumDegOwned)
			for j := 2; j <= k; j++ {
				p.span(obs.LevelName, j, "level")
				p.rec.Add(obs.Levels, 1)
				for _, v := range p.owned {
					sv := int(p.slotOf[v])
					dst := cur[sv*n2 : sv*n2+nb]
					for q := range dst {
						dst[q] = 0
					}
					for _, u := range p.g.Neighbors(v) {
						su := int(p.slotOf[u])
						r := gf.Elem(1)
						if !p.cfg.NoFingerprints {
							r = a.EdgeCoeff(u, v, j)
						}
						gf.MulSlice16(dst, prev[su*n2:su*n2+nb], r)
					}
					gf.HadamardInto(dst, dst, base[sv*n2:sv*n2+nb])
				}
				p.advanceCompute(levelCost)
				p.countDPOps(levelElems)
				// Send result to neighbors (Algorithm 3 lines 14–16),
				// one aggregated message per destination part. The last
				// level feeds only the local sum, so it needs no halo.
				if j < k {
					p.exchange(cur, n2, nb, j, j)
				}
				p.endSpan()
				prev, cur = cur, prev
			}
			for _, v := range p.owned {
				sv := int(p.slotOf[v])
				for q := 0; q < nb; q++ {
					total ^= prev[sv*n2+q]
				}
			}
			p.advanceCompute(elemSec * float64(len(p.owned)) * float64(nb))
			p.countDPOps(float64(len(p.owned)) * float64(nb))
			p.endSpan()
		}
		// Algorithm 2 line 12: all groups synchronize between batches
		// (and, with a context, agree on cancellation).
		if err := p.syncStep(); err != nil {
			return 0, err
		}
		p.reportProgress(s, numPhases)
	}
	return total, nil
}
