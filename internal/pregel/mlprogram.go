package pregel

import (
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
)

// This file implements multilinear detection as vertex programs — the
// algorithm of reference [19], which the paper's Giraph-based baseline
// ran. The arithmetic is identical to internal/mld (same assignments,
// same fingerprints), so results agree exactly with the sequential
// detector; what differs is the execution style: one superstep per DP
// level, one materialized message per edge per level, neighbor values
// retained in per-vertex state. Those costs are the baseline's handicap
// in the paper's comparison.

// Options configures the pregel-based detectors.
type Options struct {
	Seed    uint64
	Epsilon float64
	Rounds  int
	N2      int // iteration batch width per engine run
	Workers int
}

func (o Options) mld() mld.Options {
	return mld.Options{Seed: o.Seed, Epsilon: o.Epsilon, Rounds: o.Rounds, N2: o.N2}
}

// pathState is the per-vertex DP state for the k-path program.
type pathState struct {
	base []gf.Elem
	p    []gf.Elem
}

// pathMsg carries a neighbor's level vector; Src is needed for the
// fingerprint coefficient.
type pathMsg struct {
	Src int32
	Vec []gf.Elem
}

type pathProgram struct {
	k      int
	a      *mld.Assignment
	q0     uint64
	nb     int
	noGray bool
}

func (pp *pathProgram) Init(id int32) pathState { return pathState{} }

func (pp *pathProgram) Compute(ctx *Context[pathMsg], id int32, st *pathState, msgs []pathMsg) bool {
	if ctx.Superstep() == 0 {
		st.base = make([]gf.Elem, pp.nb)
		st.p = make([]gf.Elem, pp.nb)
		pp.a.FillBase(st.base, id, pp.q0, pp.noGray)
		copy(st.p, st.base)
		if pp.k == 1 {
			var tot gf.Elem
			for _, e := range st.p {
				tot ^= e
			}
			ctx.Aggregate(uint64(tot))
			return true
		}
		ctx.SendToNeighbors(pathMsg{Src: id, Vec: append([]gf.Elem(nil), st.p...)})
		return false
	}
	level := ctx.Superstep() + 1 // computing P(·, level)
	for i := range st.p {
		st.p[i] = 0
	}
	for _, m := range msgs {
		r := pp.a.EdgeCoeff(m.Src, id, level)
		gf.MulSlice16(st.p, m.Vec, r)
	}
	gf.HadamardInto(st.p, st.p, st.base)
	if level == pp.k {
		var tot gf.Elem
		for _, e := range st.p {
			tot ^= e
		}
		ctx.Aggregate(uint64(tot))
		return true
	}
	ctx.SendToNeighbors(pathMsg{Src: id, Vec: append([]gf.Elem(nil), st.p...)})
	return false
}

// DetectPath decides k-path existence with the vertex-centric engine.
// Answers agree exactly (per seed and round) with mld.DetectPath.
// It also returns the accumulated BSP statistics.
func DetectPath(g *graph.Graph, k int, opt Options) (bool, Stats, error) {
	var stats Stats
	if err := mld.ValidateK(k); err != nil {
		return false, stats, err
	}
	if k > g.NumVertices() {
		return false, stats, nil
	}
	mopt := opt.mld()
	rounds := mopt.RoundsFor(k)
	workers := opt.Workers
	if workers <= 0 {
		workers = 1
	}
	n2 := opt.N2
	if n2 <= 0 {
		n2 = 128
	}
	if total := uint64(1) << uint(k); uint64(n2) > total {
		n2 = int(total)
	}
	iters := uint64(1) << uint(k)
	for round := 0; round < rounds; round++ {
		a := mld.NewPathAssignment(g.NumVertices(), k, opt.Seed, round)
		var total uint64
		for q0 := uint64(0); q0 < iters; q0 += uint64(n2) {
			nb := n2
			if rem := iters - q0; uint64(nb) > rem {
				nb = int(rem)
			}
			prog := &pathProgram{k: k, a: a, q0: q0, nb: nb}
			eng := NewEngine[pathState, pathMsg](g, prog,
				WithWorkers[pathState, pathMsg](workers),
				WithAggregator[pathState, pathMsg](0, func(x, y uint64) uint64 { return x ^ y }))
			st, agg := eng.Run(k + 1)
			stats.Supersteps += st.Supersteps
			stats.Messages += st.Messages
			stats.ComputeCalls += st.ComputeCalls
			total ^= agg
		}
		if total != 0 {
			return true, stats, nil
		}
	}
	return false, stats, nil
}

// treeState is the per-vertex DP state of the k-tree program: one value
// vector per decomposition subtree, plus retained neighbor vectors for
// subtrees consumed as right children.
type treeState struct {
	base []gf.Elem
	vals [][]gf.Elem           // by decomposition node
	nbr  map[int32][][]gf.Elem // src → by decomposition node
}

type treeMsg struct {
	Src  int32
	Node int
	Vec  []gf.Elem
}

type treeProgram struct {
	d  *graph.Decomposition
	a  *mld.Assignment
	q0 uint64
	nb int
	// isRight[j]: subtree j is read at neighbor vertices and must be
	// messaged when computed.
	isRight []bool
}

func newTreeProgram(d *graph.Decomposition, a *mld.Assignment, q0 uint64, nb int) *treeProgram {
	tp := &treeProgram{d: d, a: a, q0: q0, nb: nb, isRight: make([]bool, len(d.Nodes))}
	for _, nd := range d.Nodes {
		if nd.Right >= 0 {
			tp.isRight[nd.Right] = true
		}
	}
	return tp
}

func (tp *treeProgram) Init(id int32) treeState { return treeState{} }

// Compute evaluates decomposition node s at superstep s (children have
// smaller indices, so they are already available — locally for Left,
// from messages for Right).
func (tp *treeProgram) Compute(ctx *Context[treeMsg], id int32, st *treeState, msgs []treeMsg) bool {
	if ctx.Superstep() == 0 {
		st.base = make([]gf.Elem, tp.nb)
		tp.a.FillBase(st.base, id, tp.q0, false)
		st.vals = make([][]gf.Elem, len(tp.d.Nodes))
		st.nbr = map[int32][][]gf.Elem{}
	}
	for _, m := range msgs {
		if st.nbr[m.Src] == nil {
			st.nbr[m.Src] = make([][]gf.Elem, len(tp.d.Nodes))
		}
		st.nbr[m.Src][m.Node] = m.Vec
	}
	j := ctx.Superstep()
	if j >= len(tp.d.Nodes) {
		return true
	}
	nd := tp.d.Nodes[j]
	var val []gf.Elem
	if nd.Left < 0 {
		val = st.base
	} else {
		val = make([]gf.Elem, tp.nb)
		acc := make([]gf.Elem, tp.nb)
		rightLeaf := tp.d.Nodes[nd.Right].Left < 0
		for _, u := range ctx.Neighbors() {
			var src []gf.Elem
			if rightLeaf {
				// leaf values are the base, computable locally for any
				// vertex — the one message the framework can skip.
				src = make([]gf.Elem, tp.nb)
				tp.a.FillBase(src, u, tp.q0, false)
			} else if st.nbr[u] != nil {
				src = st.nbr[u][nd.Right]
			}
			if src == nil {
				continue
			}
			r := tp.a.EdgeCoeff(u, id, j)
			gf.MulSlice16(acc, src, r)
		}
		gf.HadamardInto(val, st.vals[nd.Left], acc)
	}
	st.vals[j] = val
	if tp.isRight[j] && !(nd.Left < 0) && j != tp.d.Root {
		ctx.SendToNeighbors(treeMsg{Src: id, Node: j, Vec: val})
	}
	if j == tp.d.Root {
		var tot gf.Elem
		for _, e := range val {
			tot ^= e
		}
		ctx.Aggregate(uint64(tot))
		return true
	}
	return false
}

// DetectTree decides k-tree embedding existence with the vertex-centric
// engine; answers agree exactly with mld.DetectTree for the same seed.
func DetectTree(g *graph.Graph, tpl *graph.Template, opt Options) (bool, Stats, error) {
	var stats Stats
	k := tpl.K()
	if err := mld.ValidateK(k); err != nil {
		return false, stats, err
	}
	if k > g.NumVertices() {
		return false, stats, nil
	}
	d := tpl.Decompose()
	mopt := opt.mld()
	rounds := mopt.RoundsFor(k)
	workers := opt.Workers
	if workers <= 0 {
		workers = 1
	}
	n2 := opt.N2
	if n2 <= 0 {
		n2 = 128
	}
	if total := uint64(1) << uint(k); uint64(n2) > total {
		n2 = int(total)
	}
	iters := uint64(1) << uint(k)
	for round := 0; round < rounds; round++ {
		a := mld.NewTreeAssignment(g.NumVertices(), k, opt.Seed, round)
		var total uint64
		for q0 := uint64(0); q0 < iters; q0 += uint64(n2) {
			nb := n2
			if rem := iters - q0; uint64(nb) > rem {
				nb = int(rem)
			}
			prog := newTreeProgram(d, a, q0, nb)
			eng := NewEngine[treeState, treeMsg](g, prog,
				WithWorkers[treeState, treeMsg](workers),
				WithAggregator[treeState, treeMsg](0, func(x, y uint64) uint64 { return x ^ y }))
			st, agg := eng.Run(len(d.Nodes) + 1)
			stats.Supersteps += st.Supersteps
			stats.Messages += st.Messages
			stats.ComputeCalls += st.ComputeCalls
			total ^= agg
		}
		if total != 0 {
			return true, stats, nil
		}
	}
	return false, stats, nil
}

// scanState retains, Giraph-style, both the vertex's own DP table and
// every neighbor value received so far (levels are needed repeatedly by
// later levels, so they must be kept).
type scanState struct {
	base []gf.Elem
	// own[jj][z] and nbr[src][jj][z] are nb-wide vectors (nil when zero)
	own map[int]map[int64][]gf.Elem
	nbr map[int32]map[int]map[int64][]gf.Elem
}

type scanMsg struct {
	Src   int32
	Level int
	Vecs  map[int64][]gf.Elem
}

type scanProgram struct {
	j    int // target subgraph size
	zmax int64
	a    *mld.Assignment
	q0   uint64
	nb   int
	g    *graph.Graph
}

func (sp *scanProgram) Init(id int32) scanState { return scanState{} }

func (sp *scanProgram) Compute(ctx *Context[scanMsg], id int32, st *scanState, msgs []scanMsg) bool {
	if ctx.Superstep() == 0 {
		st.base = make([]gf.Elem, sp.nb)
		sp.a.FillBase(st.base, id, sp.q0, false)
		st.own = map[int]map[int64][]gf.Elem{1: {}}
		st.nbr = map[int32]map[int]map[int64][]gf.Elem{}
		w := sp.g.Weight(id)
		if w <= sp.zmax {
			vec := append([]gf.Elem(nil), st.base...)
			st.own[1][w] = vec
			if sp.j > 1 {
				ctx.SendToNeighbors(scanMsg{Src: id, Level: 1, Vecs: map[int64][]gf.Elem{w: vec}})
			}
		}
		return sp.j == 1
	}
	// store incoming level vectors
	for _, m := range msgs {
		if st.nbr[m.Src] == nil {
			st.nbr[m.Src] = map[int]map[int64][]gf.Elem{}
		}
		st.nbr[m.Src][m.Level] = m.Vecs
	}
	jj := ctx.Superstep() + 1 // computing level jj
	if jj > sp.j {
		return true
	}
	lvl := map[int64][]gf.Elem{}
	for jp := 1; jp < jj; jp++ {
		jr := jj - jp
		ownLvl := st.own[jp]
		if ownLvl == nil {
			continue
		}
		for zp, src1 := range ownLvl {
			for _, u := range ctx.Neighbors() {
				uLvls := st.nbr[u]
				if uLvls == nil {
					continue
				}
				r := sp.a.ScanCoeff(u, id, jj, jp, zp)
				for zr, src2 := range uLvls[jr] {
					z := zp + zr
					if z > sp.zmax {
						continue
					}
					dst := lvl[z]
					if dst == nil {
						dst = make([]gf.Elem, sp.nb)
						lvl[z] = dst
					}
					gf.MulHadamardAccumScaled(dst, src1, src2, r)
				}
			}
		}
	}
	st.own[jj] = lvl
	if jj == sp.j {
		return true
	}
	if len(lvl) > 0 {
		ctx.SendToNeighbors(scanMsg{Src: id, Level: jj, Vecs: lvl})
	}
	return false
}

// ScanTable computes the scan-statistics feasibility table with the
// vertex-centric engine; results agree exactly with mld.ScanTable for
// the same seed and rounds (sizes 1 and 2 come from mld.ExactScanRows
// in both).
func ScanTable(g *graph.Graph, k int, zmax int64, opt Options) ([][]bool, Stats, error) {
	var stats Stats
	if err := mld.ValidateK(k); err != nil {
		return nil, stats, err
	}
	feas := make([][]bool, k+1)
	for j := 1; j <= k; j++ {
		feas[j] = make([]bool, zmax+1)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = 1
	}
	mopt := opt.mld()
	mld.ExactScanRows(g, feas)
	for j := 3; j <= k && j <= g.NumVertices(); j++ {
		n2 := opt.N2
		if n2 <= 0 {
			n2 = 64
		}
		iters := uint64(1) << uint(j)
		if total := iters; uint64(n2) > total {
			n2 = int(total)
		}
		rounds := mopt.RoundsFor(j)
		for round := 0; round < rounds; round++ {
			a := mld.NewScanAssignment(g.NumVertices(), j, opt.Seed, round)
			totals := make([]gf.Elem, zmax+1)
			for q0 := uint64(0); q0 < iters; q0 += uint64(n2) {
				nb := n2
				if rem := iters - q0; uint64(nb) > rem {
					nb = int(rem)
				}
				prog := &scanProgram{j: j, zmax: zmax, a: a, q0: q0, nb: nb, g: g}
				eng := NewEngine[scanState, scanMsg](g, prog,
					WithWorkers[scanState, scanMsg](workers))
				st, _ := eng.Run(j + 1)
				stats.Supersteps += st.Supersteps
				stats.Messages += st.Messages
				stats.ComputeCalls += st.ComputeCalls
				for v := 0; v < g.NumVertices(); v++ {
					lvl := eng.State(int32(v)).own[j]
					for z, vec := range lvl {
						for _, e := range vec {
							totals[z] ^= e
						}
					}
				}
			}
			for z := int64(0); z <= zmax; z++ {
				if totals[z] != 0 {
					feas[j][z] = true
				}
			}
		}
	}
	return feas, stats, nil
}
