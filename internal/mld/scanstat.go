package mld

import (
	"fmt"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// scanExt is the scan-family extension of a lane: the feasibility
// table under construction plus the per-sweep DP strata. The weight
// axis is lane-private (ZMax differs per lane), so scan batching
// shares the iteration sweep and the vertex fan-out but keeps
// per-lane weight buffers rather than a lane-contiguous layout.
type scanExt struct {
	feas [][]bool
	nz   int

	// per-(size, round) sweep state
	p      [][][]gf.Elem // p[jj][z]: flat n×n2, one stratum per (level, weight)
	base   []gf.Elem
	totals []gf.Elem
}

// scanFamily is the weight-stratified scan polynomial for one subgraph
// size as a sweep-engine Family. A ScanTable call runs one engine pass
// per size j ≤ k, each with its own 2^j iteration space and round
// budget; the family keeps the table's historical phase-less
// accounting (no phase spans, Levels charged without DPOps).
type scanFamily struct {
	j    int   // subgraph size of this engine pass
	maxw int64 // max vertex weight: caps the per-stratum z loops
}

// scanMaxWeight is the largest vertex weight: a subgraph on s vertices
// weighs at most s·maxw, so DP cells above that are identically zero.
func scanMaxWeight(g *graph.Graph) int64 {
	var maxw int64
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if w := g.Weight(v); w > maxw {
			maxw = w
		}
	}
	return maxw
}

func (f *scanFamily) Kind() string      { return "scan" }
func (f *scanFamily) CountPhases() bool { return false }

func (f *scanFamily) NewAssignment(n int, st *laneState, round int) *Assignment {
	return NewAssignment(n, f.j, st.Seed, round, tagScan)
}

func (f *scanFamily) BeginRound(st *laneState) {}

func (f *scanFamily) EndRound(st *laneState, round int) {
	sc := st.scan
	if sc.feas == nil {
		return
	}
	for z := 0; z < sc.nz; z++ {
		if sc.totals[z] != 0 {
			sc.feas[f.j][z] = true
		}
	}
}

func (f *scanFamily) Alloc(e *groupRun) {
	n := e.g.NumVertices()
	for _, st := range e.gr.live {
		sc := st.scan
		sc.p = make([][][]gf.Elem, f.j+1)
		for jj := 1; jj <= f.j; jj++ {
			sc.p[jj] = make([][]gf.Elem, sc.nz)
			for z := 0; z < sc.nz; z++ {
				sc.p[jj][z] = e.opt.Arena.Grab(n * e.n2)
			}
		}
		sc.base = e.opt.Arena.Grab(n * e.n2)
		sc.totals = make([]gf.Elem, sc.nz)
	}
}

func (f *scanFamily) Free(e *groupRun) {
	for _, st := range e.gr.live {
		sc := st.scan
		if sc.base == nil {
			continue
		}
		e.opt.Arena.Put(sc.base)
		for jj := 1; jj <= f.j; jj++ {
			e.opt.Arena.Put(sc.p[jj]...)
		}
		sc.base, sc.p = nil, nil
	}
}

func (f *scanFamily) InitRow(e *groupRun) {
	g, n2 := e.g, e.n2
	n := g.NumVertices()
	for _, st := range e.live {
		sc := st.scan
		nb := st.nb
		for i := 0; i < n; i++ {
			st.a.FillBase(sc.base[i*n2:i*n2+nb], int32(i), e.q0, e.opt.NoGray)
		}
		for jj := 1; jj <= f.j; jj++ {
			for z := 0; z < sc.nz; z++ {
				buf := sc.p[jj][z]
				for i := range buf {
					buf[i] = 0
				}
			}
		}
		// base case: P(i,1,w(i)) = x_i
		for i := 0; i < n; i++ {
			w := g.Weight(int32(i))
			if w > st.ZMax {
				continue
			}
			copy(sc.p[1][w][i*n2:i*n2+nb], sc.base[i*n2:i*n2+nb])
		}
	}
}

func (f *scanFamily) Transfers(e *groupRun) int { return f.j - 1 }

// Transfer runs one level of the inductive case — P(i,jj,z) =
// Σ_u Σ_{j'} Σ_{z'} r·P(i,j',z')·P(u,jj-j',z-z') — for every live
// lane's private weight strata, one vertex fan-out serving all lanes.
// Level jj reads only levels < jj, and each vertex writes only its own
// rows, so the vertex loop parallelizes per level.
func (f *scanFamily) Transfer(e *groupRun, step int) {
	jj := step + 1
	g, opt, n2 := e.g, e.opt, e.n2
	live := e.live
	opt.obsSpan(obs.LevelName, jj, "level")
	opt.Obs.Add(obs.Levels, int64(len(live)))
	opt.parallelVertices(g, func(lo, hi int32) {
		var sk int64
		for _, st := range live {
			sc := st.scan
			nb := st.nb
			zcap := func(s int) int {
				c := int64(s) * f.maxw
				if c > st.ZMax {
					c = st.ZMax
				}
				return int(c)
			}
			for i := lo; i < hi; i++ {
				iLo, iHi := int(i)*n2, int(i)*n2+nb
				for _, u := range g.Neighbors(i) {
					uLo, uHi := int(u)*n2, int(u)*n2+nb
					for jp := 1; jp < jj; jp++ {
						jr := jj - jp
						for zp := 0; zp <= zcap(jp); zp++ {
							src1 := sc.p[jp][zp][iLo:iHi]
							if !gf.AnyNonZero(src1) {
								sk++
								continue
							}
							var r gf.Elem = 1
							if !opt.NoFingerprints {
								r = st.a.ScanCoeff(u, i, jj, jp, int64(zp))
							}
							for zr := 0; zr <= zcap(jr) && zp+zr < sc.nz; zr++ {
								src2 := sc.p[jr][zr][uLo:uHi]
								if !gf.AnyNonZero(src2) {
									sk++
									continue
								}
								gf.MulHadamardAccumScaled(sc.p[jj][zp+zr][iLo:iHi], src1, src2, r)
							}
						}
					}
				}
			}
		}
		e.addSkipped(sk)
	})
	opt.obsEnd()
}

func (f *scanFamily) Finalize(e *groupRun) {
	n, n2 := e.g.NumVertices(), e.n2
	for _, st := range e.live {
		sc := st.scan
		for z := 0; z < sc.nz; z++ {
			buf := sc.p[f.j][z]
			for i := 0; i < n; i++ {
				for q := 0; q < st.nb; q++ {
					sc.totals[z] ^= buf[i*n2+q]
				}
			}
		}
	}
}

// ScanTable computes the connected-subgraph feasibility table behind the
// scan-statistics optimization (paper Section V-B): entry [j][z] is true
// iff g has a connected subgraph of exactly j vertices with total event
// weight exactly z, for 1 ≤ j ≤ k and 0 ≤ z ≤ zmax. Errors are
// one-sided (a true entry is always correct; a feasible entry is false
// with probability at most opt.Epsilon).
//
// The GF evaluation detects terms whose χ-support equals the number of
// colors, so each target size j runs with its own j-color iteration
// space of 2^j points; the total work Σ_j 2^j·poly ≤ 2^(k+1)·poly
// matches Lemma 3's O(2^k ...) bound (DESIGN.md §2).
//
// Vertex weights must be non-negative.
func ScanTable(g *graph.Graph, k int, zmax int64, opt Options) ([][]bool, error) {
	if err := validateK(k, g.NumVertices()); err != nil {
		return nil, err
	}
	if zmax < 0 {
		return nil, fmt.Errorf("mld: negative weight cap %d", zmax)
	}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if g.Weight(v) < 0 {
			return nil, fmt.Errorf("mld: vertex %d has negative weight %d", v, g.Weight(v))
		}
	}
	feas := make([][]bool, k+1)
	for j := 1; j <= k; j++ {
		feas[j] = make([]bool, zmax+1)
	}
	if opt.Arena == nil {
		opt.Arena = NewArena() // share slabs across sizes and rounds
	}
	maxw := scanMaxWeight(g)
	st := soloLane(k, opt)
	st.ZMax = zmax
	st.scan = &scanExt{feas: feas, nz: int(zmax) + 1}
	for j := 1; j <= k && j <= g.NumVertices(); j++ {
		// Each size is its own engine pass: a 2^j iteration space with a
		// j-derived round budget, reusing the lane (and its table) across
		// passes.
		st.iters = uint64(1) << uint(j)
		st.roundsTotal = opt.RoundsFor(j)
		gr := &famGroup{fam: &scanFamily{j: j, maxw: maxw}, sts: []*laneState{st}}
		n2 := PlanN2(opt.N2, g.NumVertices(), j, 1, WeightSlabs(j, zmax))
		if err := runGroups(g, []*famGroup{gr}, n2, opt); err != nil {
			return nil, err
		}
	}
	return feas, nil
}

// CellFeasible answers a single feasibility question — does g contain a
// connected subgraph of exactly j vertices and weight exactly z? — by
// running only the size-j evaluation (the witness-extraction oracle, for
// which computing the whole table would waste a factor ~2).
func CellFeasible(g *graph.Graph, j int, z int64, opt Options) (bool, error) {
	if err := validateK(j, g.NumVertices()); err != nil {
		return false, err
	}
	if z < 0 {
		return false, fmt.Errorf("mld: negative weight %d", z)
	}
	if j > g.NumVertices() {
		return false, nil
	}
	if opt.Arena == nil {
		opt.Arena = NewArena()
	}
	rounds := opt.RoundsFor(j)
	for round := 0; round < rounds; round++ {
		a := NewAssignment(g.NumVertices(), j, opt.Seed, round, tagScan)
		row, err := scanRound(g, j, z, a, opt)
		if err != nil {
			return false, err
		}
		if row[z] != 0 {
			return true, nil
		}
	}
	return false, nil
}

// scanRound evaluates the scan polynomial for subgraph size exactly j
// over all 2^j iterations of one assignment, returning the per-weight
// field totals (nonzero at z ⇒ a connected size-j weight-z subgraph
// exists): one engine sweep of a single scan lane. A non-nil opt.Ctx
// aborts between iteration batches with the context's error.
func scanRound(g *graph.Graph, j int, zmax int64, a *Assignment, opt Options) ([]gf.Elem, error) {
	if opt.Arena == nil {
		opt.Arena = NewArena()
	}
	st := &laneState{BatchLane: BatchLane{K: j, ZMax: zmax}, k: j, iters: uint64(1) << uint(j), a: a}
	st.scan = &scanExt{nz: int(zmax) + 1}
	gr := &famGroup{fam: &scanFamily{j: j, maxw: scanMaxWeight(g)}, sts: []*laneState{st}, live: []*laneState{st}}
	if err := sweepGroups(g, []*famGroup{gr}, PlanN2(opt.N2, g.NumVertices(), j, 1, WeightSlabs(j, zmax)), opt); err != nil {
		return nil, err
	}
	return st.scan.totals, nil
}

// BruteScanTable computes the exact feasibility table by enumerating all
// vertex combinations of size up to k and testing connectivity — the
// obviously-correct (and exponential) test oracle for ScanTable. Small
// graphs only.
func BruteScanTable(g *graph.Graph, k int, zmax int64) [][]bool {
	feas := make([][]bool, k+1)
	for j := 1; j <= k; j++ {
		feas[j] = make([]bool, zmax+1)
	}
	n := g.NumVertices()
	set := make([]int32, 0, k)
	var rec func(start int32)
	rec = func(start int32) {
		if j := len(set); j >= 1 {
			var w int64
			for _, v := range set {
				w += g.Weight(v)
			}
			if w <= zmax && graph.IsConnectedSubset(g, set) {
				feas[j][w] = true
			}
		}
		if len(set) == k {
			return
		}
		for v := start; v < int32(n); v++ {
			set = append(set, v)
			rec(v + 1)
			set = set[:len(set)-1]
		}
	}
	rec(0)
	return feas
}
