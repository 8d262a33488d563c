package core

import (
	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
)

// RunTree executes distributed k-tree detection (Algorithm 4). Every
// rank calls it collectively with the same graph, template and
// configuration. cfg.K is ignored; the template fixes k.
func RunTree(world *comm.Comm, g *graph.Graph, tpl *graph.Template, cfg Config) (bool, error) {
	cfg.K = tpl.K()
	if err := mld.ValidateK(cfg.K); err != nil {
		return false, err
	}
	if cfg.K > g.NumVertices() {
		return false, nil
	}
	p, err := buildPlan(world, g, cfg, mld.LevelSlabs(cfg.K))
	if err != nil {
		return false, err
	}
	d := tpl.Decompose()
	rounds := cfg.mldOptions().RoundsFor(cfg.K)
	for round := 0; round < rounds; round++ {
		if err := p.checkCtx(); err != nil {
			return false, err
		}
		p.span(obs.RoundName, round, "round")
		p.rec.Add(obs.Rounds, 1)
		a := mld.NewTreeAssignment(g.NumVertices(), cfg.K, cfg.Seed, round)
		total, err := p.treeRoundLocal(d, a)
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

// treeRoundLocal runs this rank's share of one round over the template
// decomposition and returns its partial field total. With a configured
// context the per-step synchronization doubles as the cancellation
// point (see syncStep).
func (p *plan) treeRoundLocal(d *graph.Decomposition, a *mld.Assignment) (gf.Elem, error) {
	k, n2 := p.cfg.K, p.cfg.N2
	iters := uint64(1) << uint(k)
	numPhases := p.phases(k)
	steps := (numPhases + uint64(p.groups) - 1) / uint64(p.groups)

	// Only subtrees consumed as a Right child are read at neighbor
	// vertices and need their halo exchanged.
	isRight := make([]bool, len(d.Nodes))
	for _, nd := range d.Nodes {
		if nd.Right >= 0 {
			isRight[nd.Right] = true
		}
	}

	base := p.arena.Grab(p.nSlots * n2)
	vals := make([][]gf.Elem, len(d.Nodes))
	for j, nd := range d.Nodes {
		if nd.Left >= 0 {
			vals[j] = p.arena.Grab(p.nSlots * n2)
			defer p.arena.Put(vals[j])
		}
	}
	defer p.arena.Put(base)
	acc := make([]gf.Elem, n2)
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
			// k internal-node buffers plus base live at once.
			elemSec, edgeSec := p.kernelCosts(k + 1)
			for sl := 0; sl < p.nSlots; sl++ {
				a.FillBase(base[sl*n2:sl*n2+nb], p.vertOf[sl], q0, p.cfg.NoGray)
			}
			p.advanceCompute(elemSec * float64(p.nSlots) * float64(nb+k))
			p.countDPOps(float64(p.nSlots) * float64(nb+k))
			nodeElems := float64(p.sumDegOwned+len(p.owned)) * float64(nb)
			nodeCost := elemSec*nodeElems + edgeSec*float64(p.sumDegOwned)
			for j, nd := range d.Nodes {
				if nd.Left < 0 {
					vals[j] = base // leaves share the base buffer; ghosts are local
					continue
				}
				p.span(obs.LevelName, j, "level")
				p.rec.Add(obs.Levels, 1)
				left, right := vals[nd.Left], vals[nd.Right]
				dstAll := vals[j]
				for _, v := range p.owned {
					sv := int(p.slotOf[v])
					av := acc[:nb]
					for q := range av {
						av[q] = 0
					}
					for _, u := range p.g.Neighbors(v) {
						su := int(p.slotOf[u])
						r := gf.Elem(1)
						if !p.cfg.NoFingerprints {
							r = a.EdgeCoeff(u, v, j)
						}
						gf.MulSlice16(av, right[su*n2:su*n2+nb], r)
					}
					gf.HadamardInto(dstAll[sv*n2:sv*n2+nb], left[sv*n2:sv*n2+nb], av)
				}
				p.advanceCompute(nodeCost)
				p.countDPOps(nodeElems)
				if isRight[j] {
					p.exchange(dstAll, n2, nb, j, j)
				}
				p.endSpan()
			}
			root := vals[d.Root]
			for _, v := range p.owned {
				sv := int(p.slotOf[v])
				for q := 0; q < nb; q++ {
					total ^= root[sv*n2+q]
				}
			}
			p.advanceCompute(elemSec * float64(len(p.owned)) * float64(nb))
			p.countDPOps(float64(len(p.owned)) * float64(nb))
			p.endSpan()
		}
		if err := p.syncStep(); err != nil {
			return 0, err
		}
		p.reportProgress(s, numPhases)
	}
	return total, nil
}
