package mld

import (
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// treeFamily is the k-tree template polynomial as a sweep-engine
// Family: one transfer step per decomposition node (leaves bind the
// base row, internal nodes combine their children over the vertex's
// neighbor values), and the lane folds the root slab in Finalize.
type treeFamily struct {
	d    *graph.Decomposition
	base []gf.Elem
	vals [][]gf.Elem
	slot []int // internal node → its level row in the coefficient stream
}

func (f *treeFamily) Kind() string      { return "tree" }
func (f *treeFamily) CountPhases() bool { return true }

func (f *treeFamily) NewAssignment(n int, st *laneState, round int) *Assignment {
	return NewTreeAssignment(n, st.K, st.Seed, round)
}

func (f *treeFamily) BeginRound(st *laneState) { st.total = 0 }

func (f *treeFamily) EndRound(st *laneState, round int) {
	if st.total != 0 {
		st.found, st.done = true, true
	} else if round+1 >= st.roundsTotal {
		st.done = true
	}
}

func (f *treeFamily) Alloc(e *laneRun) {
	size := e.g.NumVertices() * e.n2
	f.base = e.opt.Arena.Grab(size)
	// one value buffer per internal decomposition node; leaves share base.
	f.vals = make([][]gf.Elem, len(f.d.Nodes))
	f.slot = make([]int, len(f.d.Nodes))
	levels := 0
	for j, nd := range f.d.Nodes {
		if nd.Left >= 0 {
			f.vals[j] = e.opt.Arena.Grab(size)
			f.slot[j] = levels
			levels++
		}
	}
	e.grabCoeffs(levels)
}

func (f *treeFamily) Free(e *laneRun) {
	e.putCoeffs()
	e.opt.Arena.Put(f.base)
	for j, nd := range f.d.Nodes {
		if nd.Left >= 0 {
			e.opt.Arena.Put(f.vals[j])
		}
	}
	f.base, f.vals, f.slot = nil, nil, nil
}

func (f *treeFamily) InitRow(e *laneRun) {
	n, st, nb := e.g.NumVertices(), e.st, e.st.nb
	for i := 0; i < n; i++ {
		st.a.FillBase(f.base[i*nb:(i+1)*nb], int32(i), e.q0, e.opt.NoGray)
	}
}

func (f *treeFamily) Transfers(e *laneRun) int { return len(f.d.Nodes) }

func (f *treeFamily) Transfer(e *laneRun, step int) {
	j := step - 1
	nd := f.d.Nodes[j]
	if nd.Left < 0 {
		f.vals[j] = f.base
		return
	}
	g, opt := e.g, e.opt
	opt.obsSpan(obs.LevelName, j, "level")
	opt.obsLevel(levelElems(g) * int64(e.st.nb))
	left, right, dst := f.vals[nd.Left], f.vals[nd.Right], f.vals[j]
	// P(i, H') = P(i, H'_1) · Σ_u r·P(u, H'_2), the fingerprints keyed
	// by the decomposition node index, unique per subtree shape.
	opt.parallelVertices(g, func(lo, hi int32) {
		e.transfer(lo, hi, j, f.slot[j], dst, right, left)
	})
	opt.obsEnd()
}

func (f *treeFamily) Finalize(e *laneRun) {
	e.st.accumulate(f.vals[f.d.Root][:e.g.NumVertices()*e.st.nb])
}

// DetectTree decides whether the tree template has a non-induced
// embedding in g, with one-sided failure probability at most
// opt.Epsilon. The template polynomial is built from the recursive
// decomposition of paper Fig 2 and evaluated exactly like the path
// polynomial, one subtree per DP "level".
func DetectTree(g *graph.Graph, tpl *graph.Template, opt Options) (bool, error) {
	k := tpl.K()
	if err := validateK(k, g.NumVertices()); err != nil {
		return false, err
	}
	if k > g.NumVertices() {
		return false, nil
	}
	if opt.Arena == nil {
		opt.Arena = NewArena() // share slabs across this call's rounds
	}
	st := soloLane(k, opt)
	if err := runLane(g, &treeFamily{d: tpl.Decompose()}, st, PlanN2(opt.N2, g.NumVertices(), k, LevelSlabs(k)), opt); err != nil {
		return false, err
	}
	return st.found, st.err
}

// treeRound evaluates the k-tree polynomial over all 2^k iterations for
// one assignment; a nonzero return means an embedding exists: one
// engine sweep of a single tree lane. A non-nil opt.Ctx aborts between
// iteration batches with the context's error.
func treeRound(g *graph.Graph, d *graph.Decomposition, a *Assignment, opt Options) (gf.Elem, error) {
	if opt.Arena == nil {
		opt.Arena = NewArena()
	}
	st := assignedLane(a)
	if err := sweep(g, &treeFamily{d: d}, st, PlanN2(opt.N2, g.NumVertices(), a.K, LevelSlabs(a.K)), opt); err != nil {
		return 0, err
	}
	return st.total, nil
}
