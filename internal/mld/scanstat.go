package mld

import (
	"fmt"
	"sync"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// scanExt is the scan-family extension of a lane: the feasibility
// table under construction and the current round's per-weight totals.
type scanExt struct {
	feas   [][]bool
	nz     int
	totals []gf.Elem
}

// scanFamily is the weight-stratified scan polynomial for one subgraph
// size as a sweep-engine Family. A ScanTable call runs one engine pass
// per size j ≤ k, each with its own 2^j iteration space and round
// budget; the family keeps the table's historical phase-less
// accounting (no phase spans, Levels charged without DPOps).
type scanFamily struct {
	j int // subgraph size of this engine pass

	// p[jj] is level jj as one vertex-major slab of n × nz × N2
	// elements: P(i, jj, z) is the nb-wide run at [(i·nz + z)·nb, +nb),
	// so a vertex's weight strata are contiguous.
	p [][]gf.Elem
	// live[jj][i] is the range of vertex i's nonzero strata at level
	// jj < j, recorded once its row is complete; empty when lo > hi.
	// The levels share one buffer, ranges, from rangePool.
	live   [][]zRange
	ranges []zRange
	base   []gf.Elem
}

// zRange is a closed range [lo, hi] of weight strata.
type zRange struct{ lo, hi int }

// rangePool recycles the live-range buffers of finished sweeps. Without
// it every scan query leaves 16 bytes per vertex and level to the
// collector, which raises a serving process's peak RSS.
var rangePool sync.Pool // of *[]zRange

// grabRanges returns a buffer of n ranges, reused when the pool has
// one large enough. Its contents are stale: every range is written
// before it is read.
func grabRanges(n int) []zRange {
	if p, _ := rangePool.Get().(*[]zRange); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]zRange, n)
}

// liveStrata returns the range of nonzero nb-wide strata in row.
func liveStrata(row []gf.Elem, nb int) zRange {
	r := zRange{lo: len(row) / nb, hi: -1}
	for z := 0; z < len(row)/nb; z++ {
		if gf.AnyNonZero(row[z*nb : z*nb+nb]) {
			r.lo, r.hi = min(r.lo, z), z
		}
	}
	return r
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

func (f *scanFamily) Alloc(e *laneRun) {
	n := e.g.NumVertices()
	nz := e.st.scan.nz
	f.p = make([][]gf.Elem, f.j+1)
	for jj := 1; jj <= f.j; jj++ {
		f.p[jj] = e.opt.Arena.Grab(n * nz * e.n2)
	}
	f.ranges = grabRanges((f.j - 1) * n)
	f.live = make([][]zRange, f.j)
	for jj := 1; jj < f.j; jj++ {
		f.live[jj] = f.ranges[(jj-1)*n : jj*n]
	}
	f.base = e.opt.Arena.Grab(n * e.n2)
	e.st.scan.totals = make([]gf.Elem, nz)
}

func (f *scanFamily) Free(e *laneRun) {
	e.opt.Arena.Put(f.base)
	e.opt.Arena.Put(f.p[1:]...)
	ranges := f.ranges
	rangePool.Put(&ranges)
	f.base, f.p, f.live, f.ranges = nil, nil, nil, nil
}

func (f *scanFamily) InitRow(e *laneRun) {
	g, st, nb := e.g, e.st, e.st.nb
	n, nz := g.NumVertices(), st.scan.nz
	for i := 0; i < n; i++ {
		st.a.FillBase(f.base[i*nb:(i+1)*nb], int32(i), e.q0, e.opt.NoGray)
	}
	for jj := 1; jj <= f.j; jj++ {
		clear(f.p[jj][:n*nz*nb])
	}
	// base case: P(i,1,w(i)) = x_i
	for i := 0; i < n; i++ {
		row := f.p[1][i*nz*nb : (i+1)*nz*nb]
		if w := g.Weight(int32(i)); w <= st.ZMax {
			copy(row[int(w)*nb:], f.base[i*nb:(i+1)*nb])
		}
		if f.j > 1 {
			f.live[1][i] = liveStrata(row, nb)
		}
	}
}

func (f *scanFamily) Transfers(e *laneRun) int { return f.j - 1 }

// Transfer runs one level of the inductive case — P(i,jj,z) =
// Σ_u Σ_{j'} Σ_{z'} r·P(i,j',z')·P(u,jj-j',z-z') — over the lane's
// weight strata. The local piece P(i,j',z') does not depend on u, so
// for each live z' the neighbour pieces are first summed over all
// their live strata at once, tmp[zr] = Σ_u r·P(u,jj−j')[zr] (one axpy
// per neighbour over a contiguous run of strata), and then one
// periodic Hadamard adds P(i,j',z') ⊙ tmp[zr] into P(i,jj,z'+zr) for
// every zr. r = ScanCoeff(u, i, jj, j', z') keeps z' in the
// fingerprint, so the totals equal the per-(u, z', zr) triple product
// exactly. Level jj reads only levels < jj, and each vertex writes
// only its own rows, so the vertex loop parallelizes per level.
func (f *scanFamily) Transfer(e *laneRun, step int) {
	jj := step + 1
	g, opt, st, nb := e.g, e.opt, e.st, e.st.nb
	nz := st.scan.nz
	stride := nz * nb // one vertex's strata at one level
	opt.obsSpan(obs.LevelName, jj, "level")
	opt.Obs.Add(obs.Levels, 1)
	dst := f.p[jj]
	opt.parallelVertices(g, func(lo, hi int32) {
		tmp := opt.Arena.Grab(stride) // per-worker neighbour sum, one run per stratum
		var sk int64
		for i := lo; i < hi; i++ {
			row := int(i) * stride
			for jp := 1; jp < jj; jp++ {
				jr := jj - jp
				src := f.p[jp][row : row+stride]
				for zp := f.live[jp][i].lo; zp <= f.live[jp][i].hi; zp++ {
					local := src[zp*nb : zp*nb+nb]
					if !gf.AnyNonZero(local) {
						sk++ // a dead source stratum inside the live range
						continue
					}
					tlo, thi := nz, -1 // strata of tmp written
					for _, u := range g.Neighbors(i) {
						ur := f.live[jr][u]
						zlo, zhi := ur.lo, min(ur.hi, nz-1-zp)
						if zlo > zhi {
							sk++ // u has nothing of weight ≤ zmax − z'
							continue
						}
						r := gf.Elem(1)
						if !opt.NoFingerprints {
							r = st.a.ScanCoeff(u, i, jj, jp, int64(zp))
						}
						urow := int(u)*stride + zlo*nb
						gf.MulSlice16(tmp[zlo*nb:(zhi+1)*nb], f.p[jr][urow:urow+(zhi+1-zlo)*nb], r)
						tlo, thi = min(tlo, zlo), max(thi, zhi)
					}
					if tlo > thi {
						continue
					}
					// P(i,jj)[z'+zr] ^= P(i,j')[z'] ⊙ tmp[zr]
					sum := tmp[tlo*nb : (thi+1)*nb]
					at := row + (zp+tlo)*nb
					gf.MulHadamardAccumPeriodic(dst[at:at+len(sum)], local, sum)
					clear(sum)
				}
			}
			if jj < f.j {
				f.live[jj][i] = liveStrata(dst[row:row+stride], nb)
			}
		}
		opt.Arena.Put(tmp)
		e.addSkipped(sk)
	})
	opt.obsEnd()
}

func (f *scanFamily) Finalize(e *laneRun) {
	sc, nb := e.st.scan, e.st.nb
	stride := sc.nz * nb
	last := f.p[f.j][:e.g.NumVertices()*stride]
	for row := 0; row < len(last); row += stride {
		for z := 0; z < sc.nz; z++ {
			for _, v := range last[row+z*nb : row+(z+1)*nb] {
				sc.totals[z] ^= v
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
// matches Lemma 3's O(2^k ...) bound (DESIGN.md §2). Sizes 1 and 2 are
// not sieved: ExactScanRows reads them off the vertices and edges, so
// their entries carry no error.
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
	ExactScanRows(g, feas)
	st := soloLane(k, opt)
	st.ZMax = zmax
	st.scan = &scanExt{feas: feas, nz: int(zmax) + 1}
	for j := 3; j <= k && j <= g.NumVertices(); j++ {
		// Each size is its own engine pass: a 2^j iteration space with a
		// j-derived round budget, reusing the lane (and its table) across
		// passes.
		st.iters = uint64(1) << uint(j)
		st.roundsTotal = opt.RoundsFor(j)
		n2 := PlanN2(opt.N2, g.NumVertices(), j, WeightSlabs(j, zmax))
		if err := runLane(g, &scanFamily{j: j}, st, n2, opt); err != nil {
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
	if j <= 2 {
		feas := make([][]bool, j+1)
		for jj := 1; jj <= j; jj++ {
			feas[jj] = make([]bool, z+1)
		}
		ExactScanRows(g, feas)
		return feas[j][z], nil
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

// ExactScanRows fills rows 1 and 2 of the feasibility table feas
// (feas[j][z] for 0 ≤ z < len(feas[j]); row 2 only if feas has one)
// exactly, in O(n + m): a connected subgraph on one vertex is a vertex,
// and one on two vertices is an edge. The sieve would find these cells
// only with the one-sided error of every other cell, which buys
// nothing when the answer is this cheap.
func ExactScanRows(g *graph.Graph, feas [][]bool) {
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		wv := g.Weight(v)
		if wv < int64(len(feas[1])) {
			feas[1][wv] = true
		}
		if len(feas) <= 2 {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if w := wv + g.Weight(u); u > v && w < int64(len(feas[2])) {
				feas[2][w] = true
			}
		}
	}
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
	st := assignedLane(a)
	st.ZMax = zmax
	st.scan = &scanExt{nz: int(zmax) + 1}
	if err := sweep(g, &scanFamily{j: j}, st, PlanN2(opt.N2, g.NumVertices(), j, WeightSlabs(j, zmax)), opt); err != nil {
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
