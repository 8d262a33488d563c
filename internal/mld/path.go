package mld

import (
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// pathFamily is the k-path polynomial as a sweep-engine Family: the
// init row is P(i,1) = x_i, transfer step j−1 is the path recurrence
// P(i,j) = x_i · Σ_u r·P(u,j−1) over two ping-pong slabs, and the lane
// folds its totals at level k.
type pathFamily struct {
	base, prev, cur []gf.Elem
}

func (f *pathFamily) Kind() string      { return "path" }
func (f *pathFamily) CountPhases() bool { return true }

func (f *pathFamily) NewAssignment(n int, st *laneState, round int) *Assignment {
	return NewPathAssignment(n, st.K, st.Seed, round)
}

func (f *pathFamily) BeginRound(st *laneState) { st.total = 0 }

func (f *pathFamily) EndRound(st *laneState, round int) {
	if st.total != 0 {
		st.found, st.done = true, true
	} else if round+1 >= st.roundsTotal {
		st.done = true
	}
}

func (f *pathFamily) Alloc(e *laneRun) {
	size := e.g.NumVertices() * e.n2
	f.base = e.opt.Arena.Grab(size)
	f.prev = e.opt.Arena.Grab(size)
	f.cur = e.opt.Arena.Grab(size)
	e.grabCoeffs(e.st.K - 1)
}

func (f *pathFamily) Free(e *laneRun) {
	e.putCoeffs()
	e.opt.Arena.Put(f.base, f.prev, f.cur)
	f.base, f.prev, f.cur = nil, nil, nil
}

func (f *pathFamily) InitRow(e *laneRun) {
	n, st, nb := e.g.NumVertices(), e.st, e.st.nb
	for i := 0; i < n; i++ {
		st.a.FillBase(f.base[i*nb:(i+1)*nb], int32(i), e.q0, e.opt.NoGray)
	}
	// level 1: P(i,1) = x_i; a k=1 lane is done.
	copy(f.prev[:n*nb], f.base[:n*nb])
	if st.K == 1 {
		st.accumulate(f.prev[:n*nb])
	}
}

func (f *pathFamily) Transfers(e *laneRun) int { return e.st.K - 1 }

func (f *pathFamily) Transfer(e *laneRun, step int) {
	j := step + 1
	g, opt, st, nb := e.g, e.opt, e.st, e.st.nb
	opt.obsSpan(obs.LevelName, j, "level")
	opt.obsLevel(levelElems(g) * int64(nb))
	// P(i,j) = x_i · Σ_u r·P(u,j-1)
	opt.parallelVertices(g, func(lo, hi int32) {
		e.transfer(lo, hi, j, j-2, f.cur, f.prev, f.base)
	})
	opt.obsEnd()
	f.prev, f.cur = f.cur, f.prev
	if st.K == j {
		st.accumulate(f.prev[:g.NumVertices()*nb])
	}
}

func (f *pathFamily) Finalize(e *laneRun) {}

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
		// kernels; only the round loop is shared with the engine's
		// accounting.
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
	if err := runLane(g, &pathFamily{}, st, PlanN2(opt.N2, g.NumVertices(), k, PathSlabs), opt); err != nil {
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
	st := assignedLane(a)
	if err := sweep(g, &pathFamily{}, st, PlanN2(opt.N2, g.NumVertices(), a.K, PathSlabs), opt); err != nil {
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
