package mld

import (
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// pathFamily is the k-path polynomial as a sweep-engine Family: the
// init row is P(i,1) = x_i, transfer step j−1 is the path recurrence
// P(i,j) = x_i · Σ_u r·P(u,j−1) over two ping-pong slabs, and a lane
// folds its totals at its own final level (heterogeneous-k groups run
// to the deepest live k).
type pathFamily struct {
	base, prev, cur []gf.Elem
}

func (f *pathFamily) Kind() string      { return "path" }
func (f *pathFamily) CountPhases() bool { return true }

func (f *pathFamily) NewAssignment(n int, st *laneState, round int) *Assignment {
	return NewPathAssignment(n, st.k, st.Seed, round)
}

func (f *pathFamily) BeginRound(st *laneState) { st.total = 0 }

func (f *pathFamily) EndRound(st *laneState, round int) {
	if st.total != 0 {
		st.found, st.done = true, true
	} else if round+1 >= st.roundsTotal {
		st.done = true
	}
}

func (f *pathFamily) Alloc(e *groupRun) {
	n := e.g.NumVertices()
	f.base = e.opt.Arena.Grab(n * e.gr.stride)
	f.prev = e.opt.Arena.Grab(n * e.gr.stride)
	f.cur = e.opt.Arena.Grab(n * e.gr.stride)
}

func (f *pathFamily) Free(e *groupRun) {
	e.opt.Arena.Put(f.base, f.prev, f.cur)
	f.base, f.prev, f.cur = nil, nil, nil
}

func (f *pathFamily) InitRow(e *groupRun) {
	n := e.g.NumVertices()
	stride := e.gr.stride
	for i := 0; i < n; i++ {
		row := i * stride
		for _, st := range e.live {
			st.a.FillBase(f.base[row+st.off:row+st.off+st.nb], int32(i), e.q0, e.opt.NoGray)
		}
	}
	// level 1: P(i,1) = x_i, copied span-fused; k=1 lanes are done.
	spans := liveSpans(e.live)
	for i := 0; i < n; i++ {
		row := i * stride
		for _, sp := range spans {
			copy(f.prev[row+sp.lo:row+sp.hi], f.base[row+sp.lo:row+sp.hi])
		}
	}
	for _, st := range e.live {
		if st.k == 1 {
			st.accumulate(f.prev, stride, n)
		}
	}
}

func (f *pathFamily) Transfers(e *groupRun) int {
	kPhase := 0
	for _, st := range e.live {
		if st.k > kPhase {
			kPhase = st.k
		}
	}
	return kPhase - 1
}

func (f *pathFamily) Transfer(e *groupRun, step int) {
	j := step + 1
	g, opt, stride := e.g, e.opt, e.gr.stride
	var lvl []*laneState
	var lvlWidth int64
	for _, st := range e.live {
		if st.k >= j {
			lvl = append(lvl, st)
			lvlWidth += int64(st.nb)
		}
	}
	spans := liveSpans(lvl)
	one := CachedMulTable(1)
	opt.obsSpan(obs.LevelName, j, "level")
	opt.obsLevel(levelElems(g) * lvlWidth)
	opt.parallelVertices(g, func(lo, hi int32) {
		for i := lo; i < hi; i++ {
			row := int(i) * stride
			for _, sp := range spans {
				dst := f.cur[row+sp.lo : row+sp.hi]
				for q := range dst {
					dst[q] = 0
				}
			}
			for _, u := range g.Neighbors(i) {
				urow := int(u) * stride
				for _, st := range lvl {
					t := one
					if !opt.NoFingerprints {
						t = st.a.EdgeTable(u, i, j)
					}
					gf.MulSliceTable16(f.cur[row+st.off:row+st.off+st.nb], f.prev[urow+st.off:urow+st.off+st.nb], t)
				}
			}
			// P(i,j) = x_i · Σ_u r·P(u,j-1)
			for _, sp := range spans {
				gf.HadamardInto(f.cur[row+sp.lo:row+sp.hi], f.cur[row+sp.lo:row+sp.hi], f.base[row+sp.lo:row+sp.hi])
			}
		}
	})
	opt.obsEnd()
	f.prev, f.cur = f.cur, f.prev
	n := g.NumVertices()
	for _, st := range lvl {
		if st.k == j {
			st.accumulate(f.prev, stride, n)
		}
	}
}

func (f *pathFamily) Finalize(e *groupRun) {}

// DetectPath decides whether g contains a simple path on k vertices,
// with failure probability at most opt.Epsilon (one-sided: a "no" answer
// for a graph with a k-path is possible with probability ≤ ε, a "yes"
// answer is always correct).
func DetectPath(g *graph.Graph, k int, opt Options) (bool, error) {
	if err := validateK(k, g.NumVertices()); err != nil {
		return false, err
	}
	if k > g.NumVertices() {
		return false, nil
	}
	if opt.Arena == nil {
		opt.Arena = NewArena() // share slabs across this call's rounds
	}
	if opt.Variant == VariantKoutis || opt.Variant == VariantGF8 {
		// The integer and GF(2^8) variants keep their own round
		// kernels (no lane-contiguous tables); only the round loop is
		// shared with the engine's accounting.
		rounds := opt.RoundsFor(k)
		for round := 0; round < rounds; round++ {
			if err := opt.ctxErr(); err != nil {
				return false, err
			}
			opt.obsSpan(obs.RoundName, round, "round")
			opt.Obs.Add(obs.Rounds, 1)
			var hit bool
			switch opt.Variant {
			case VariantKoutis:
				hit = koutisPathRound(g, k, opt, round) != 0
			default:
				hit = pathRound8(g, k, opt, round) != 0
			}
			opt.obsEnd()
			if hit {
				return true, nil
			}
		}
		return false, nil
	}
	st := soloLane(k, opt)
	gr := &famGroup{fam: &pathFamily{}, sts: []*laneState{st}}
	if err := runGroups(g, []*famGroup{gr}, PlanN2(opt.N2, g.NumVertices(), k, 1, PathSlabs), opt); err != nil {
		return false, err
	}
	return st.found, st.err
}

// pathRound evaluates the k-path polynomial over all 2^k iterations for
// one assignment and returns the accumulated field total (nonzero ⇒
// a k-path exists): one engine sweep of a single path lane. A non-nil
// opt.Ctx aborts between iteration batches with the context's error.
func pathRound(g *graph.Graph, a *Assignment, opt Options) (gf.Elem, error) {
	if opt.Arena == nil {
		opt.Arena = NewArena()
	}
	st := &laneState{BatchLane: BatchLane{K: a.K}, k: a.K, iters: uint64(1) << uint(a.K), a: a}
	gr := &famGroup{fam: &pathFamily{}, sts: []*laneState{st}, live: []*laneState{st}}
	if err := sweepGroups(g, []*famGroup{gr}, PlanN2(opt.N2, g.NumVertices(), a.K, 1, PathSlabs), opt); err != nil {
		return 0, err
	}
	return st.total, nil
}

// koutisPathRound is Algorithm 1 as printed: one full pass of 2^k
// iterations with arithmetic mod 2^(k+1), plus the integer fingerprints
// discussed in DESIGN.md §2. Returns the trace (nonzero ⇒ k-path).
//
// The modulus is a power of two, so every `% mod` reduces to masking
// with mod-1; intermediate products stay well inside uint64 (operands
// are < 2^(k+1) ≤ 2^27, so r·prev < 2^54). TestKoutisMaskMatchesModulo
// pins the trace against the literal-modulo form.
func koutisPathRound(g *graph.Graph, k int, opt Options, round int) uint64 {
	n := g.NumVertices()
	a := NewKoutisAssignment(n, k, opt.Seed, round)
	mask := a.Mod - 1
	iters := uint64(1) << uint(k)
	base := make([]uint64, n)
	prev := make([]uint64, n)
	cur := make([]uint64, n)
	var total uint64
	for t := uint64(0); t < iters; t++ {
		for i := 0; i < n; i++ {
			base[i] = a.Base(int32(i), t)
			prev[i] = base[i]
		}
		for j := 2; j <= k; j++ {
			for i := int32(0); i < int32(n); i++ {
				var acc uint64
				for _, u := range g.Neighbors(i) {
					r := uint64(1)
					if !opt.NoFingerprints {
						r = a.EdgeCoeff(u, i, j)
					}
					acc = (acc + r*prev[u]) & mask
				}
				cur[i] = (acc * base[i]) & mask
			}
			prev, cur = cur, prev
		}
		for i := 0; i < n; i++ {
			total = (total + prev[i]) & mask
		}
	}
	return total
}
