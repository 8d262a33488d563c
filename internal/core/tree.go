package core

import (
	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
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
	return p.detect(newTreeFamily(p, tpl.Decompose()), func(round int) *mld.Assignment {
		return mld.NewTreeAssignment(g.NumVertices(), cfg.K, cfg.Seed, round)
	})
}

// treeFamily is the template DP over a decomposition: internal node j
// sums r·P(u, right) over the neighbours u and multiplies the sum by
// P(v, left). Its steps are the internal nodes; leaves are the base row.
type treeFamily struct {
	p       *plan
	d       *graph.Decomposition
	isRight []bool      // subtrees read at neighbours: the only ones exchanged
	base    []gf.Elem   // the leaves' rows; ghosts are local
	vals    [][]gf.Elem // per node; leaves alias base
	acc     []gf.Elem   // one vertex's neighbour sum
	steps   []int
}

func newTreeFamily(p *plan, d *graph.Decomposition) *treeFamily {
	f := &treeFamily{p: p, d: d, isRight: make([]bool, len(d.Nodes)), base: p.slab(),
		vals: make([][]gf.Elem, len(d.Nodes)), acc: make([]gf.Elem, p.cfg.N2)}
	for j, nd := range d.Nodes {
		if nd.Right >= 0 {
			f.isRight[nd.Right] = true
		}
		if nd.Left < 0 {
			f.vals[j] = f.base
		} else {
			f.vals[j] = p.slab()
			f.steps = append(f.steps, j)
		}
	}
	return f
}

func (f *treeFamily) levels() []int { return f.steps }

func (f *treeFamily) fill(a *mld.Assignment, q0 uint64, nb int) float64 {
	f.p.fillBase(a, f.base, q0, nb)
	return float64(f.p.nSlots) * float64(nb+f.p.cfg.K)
}

func (f *treeFamily) level(a *mld.Assignment, j, nb int) (float64, float64, int64) {
	p, n2 := f.p, f.p.cfg.N2
	nd := f.d.Nodes[j]
	left, right, dstAll := f.vals[nd.Left], f.vals[nd.Right], f.vals[j]
	av := f.acc[:nb]
	for _, v := range p.owned {
		sv := int(p.slotOf[v])
		clear(av)
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
	return float64(p.sumDegOwned+len(p.owned)) * float64(nb), float64(p.sumDegOwned), 0
}

func (f *treeFamily) halo(j, nb int) {
	if f.isRight[j] {
		f.p.exchange(f.vals[j], f.p.cfg.N2, nb, j, j)
	}
}

func (f *treeFamily) final(int) []gf.Elem { return f.vals[f.d.Root] }
