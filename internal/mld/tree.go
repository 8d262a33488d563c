package mld

import (
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// treeFamily is the k-tree template polynomial as a sweep-engine
// Family: one transfer step per decomposition node (leaves bind the
// base row, internal nodes combine their children over the group's
// halo of neighbor values), and every lane folds the root slab in
// Finalize. All lanes of a group share one template shape — grouping
// by templateDigest is the batch entry point's job.
type treeFamily struct {
	d    *graph.Decomposition
	base []gf.Elem
	vals [][]gf.Elem
}

func (f *treeFamily) Kind() string      { return "tree" }
func (f *treeFamily) CountPhases() bool { return true }

func (f *treeFamily) NewAssignment(n int, st *laneState, round int) *Assignment {
	return NewTreeAssignment(n, st.k, st.Seed, round)
}

func (f *treeFamily) BeginRound(st *laneState) { st.total = 0 }

func (f *treeFamily) EndRound(st *laneState, round int) {
	if st.total != 0 {
		st.found, st.done = true, true
	} else if round+1 >= st.roundsTotal {
		st.done = true
	}
}

func (f *treeFamily) Alloc(e *groupRun) {
	n := e.g.NumVertices()
	f.base = e.opt.Arena.Grab(n * e.gr.stride)
	// one value buffer per internal decomposition node; leaves share base.
	f.vals = make([][]gf.Elem, len(f.d.Nodes))
	for j, nd := range f.d.Nodes {
		if nd.Left >= 0 {
			f.vals[j] = e.opt.Arena.Grab(n * e.gr.stride)
		}
	}
}

func (f *treeFamily) Free(e *groupRun) {
	e.opt.Arena.Put(f.base)
	for j, nd := range f.d.Nodes {
		if nd.Left >= 0 {
			e.opt.Arena.Put(f.vals[j])
		}
	}
	f.base, f.vals = nil, nil
}

func (f *treeFamily) InitRow(e *groupRun) {
	n := e.g.NumVertices()
	stride := e.gr.stride
	for i := 0; i < n; i++ {
		row := i * stride
		for _, st := range e.live {
			st.a.FillBase(f.base[row+st.off:row+st.off+st.nb], int32(i), e.q0, e.opt.NoGray)
		}
	}
}

func (f *treeFamily) Transfers(e *groupRun) int { return len(f.d.Nodes) }

func (f *treeFamily) Transfer(e *groupRun, step int) {
	j := step - 1
	nd := f.d.Nodes[j]
	if nd.Left < 0 {
		f.vals[j] = f.base
		return
	}
	g, opt, stride := e.g, e.opt, e.gr.stride
	live := e.live
	spans := liveSpans(live)
	one := CachedMulTable(1)
	opt.obsSpan(obs.LevelName, j, "level")
	opt.obsLevel(levelElems(g) * e.liveWidth())
	left, right := f.vals[nd.Left], f.vals[nd.Right]
	dstAll := f.vals[j]
	opt.parallelVertices(g, func(lo, hi int32) {
		av := make([]gf.Elem, stride) // per-worker scratch, all lanes
		for i := lo; i < hi; i++ {
			row := int(i) * stride
			for _, sp := range spans {
				seg := av[sp.lo:sp.hi]
				for q := range seg {
					seg[q] = 0
				}
			}
			for _, u := range g.Neighbors(i) {
				urow := int(u) * stride
				for _, st := range live {
					t := one
					if !opt.NoFingerprints {
						// level key: the decomposition node index,
						// unique per subtree shape.
						t = st.a.EdgeTable(u, i, j)
					}
					gf.MulSliceTable16(av[st.off:st.off+st.nb], right[urow+st.off:urow+st.off+st.nb], t)
				}
			}
			for _, sp := range spans {
				// P(i, H') = P(i, H'_1) · Σ_u r·P(u, H'_2)
				gf.HadamardInto(dstAll[row+sp.lo:row+sp.hi], left[row+sp.lo:row+sp.hi], av[sp.lo:sp.hi])
			}
		}
	})
	opt.obsEnd()
}

func (f *treeFamily) Finalize(e *groupRun) {
	root := f.vals[f.d.Root]
	n := e.g.NumVertices()
	for _, st := range e.live {
		st.accumulate(root, e.gr.stride, n)
	}
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
	gr := &famGroup{fam: &treeFamily{d: tpl.Decompose()}, sts: []*laneState{st}}
	if err := runGroups(g, []*famGroup{gr}, PlanN2(opt.N2, g.NumVertices(), k, 1, LevelSlabs(k)), opt); err != nil {
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
	st := &laneState{BatchLane: BatchLane{K: a.K}, k: a.K, iters: uint64(1) << uint(a.K), a: a}
	gr := &famGroup{fam: &treeFamily{d: d}, sts: []*laneState{st}, live: []*laneState{st}}
	if err := sweepGroups(g, []*famGroup{gr}, PlanN2(opt.N2, g.NumVertices(), a.K, 1, LevelSlabs(a.K)), opt); err != nil {
		return 0, err
	}
	return st.total, nil
}
