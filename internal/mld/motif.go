package mld

import (
	"fmt"
	"sort"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// MotifSpec is a generalized graph-motif query: does g contain a
// connected subgraph on exactly K vertices whose color multiset
// satisfies the constraint? Counts maps a vertex color to its required
// multiplicity m_c: each listed color must appear at least m_c times,
// and when Σ m_c == K the constraint is exact — every vertex of the
// motif must carry a listed color, each exactly m_c times. Colors not
// listed are unconstrained (they may fill the K − Σ m_c free slots).
type MotifSpec struct {
	K      int
	Counts map[int32]int
}

// Validate checks the spec: K within [1, MaxK], positive
// multiplicities, Σ m_c ≤ K.
func (s *MotifSpec) Validate() error {
	if s == nil {
		return fmt.Errorf("mld: nil motif spec")
	}
	if err := ValidateK(s.K); err != nil {
		return err
	}
	total := 0
	for c, m := range s.Counts {
		if m <= 0 {
			return fmt.Errorf("mld: motif color %d has non-positive count %d", c, m)
		}
		total += m
	}
	if total > s.K {
		return fmt.Errorf("mld: motif counts sum to %d > k=%d", total, s.K)
	}
	return nil
}

// Exact reports whether the constraint pins the whole multiset
// (Σ m_c == K, no free slots).
func (s *MotifSpec) Exact() bool {
	total := 0
	for _, m := range s.Counts {
		total += m
	}
	return total == s.K
}

// colors returns the listed colors in ascending order — the
// deterministic block layout of the constrained sieve.
func (s *MotifSpec) colors() []int32 {
	out := make([]int32, 0, len(s.Counts))
	for c := range s.Counts {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Admits reports whether a color multiset (histogram over the motif's
// vertices) satisfies the constraint; the multiset must have exactly K
// entries. Used by the brute-force oracle and the FASCIA baseline.
func (s *MotifSpec) Admits(hist map[int32]int) bool {
	for c, m := range s.Counts {
		if hist[c] < m {
			return false
		}
	}
	return true
}

// NewMotifAssignment derives the round's constrained assignment: the
// usual n×K random matrix with the Björklund–Kaski–Kowalik variable
// groups imposed by zeroing. Listed color c owns a block of m_c label
// columns (blocks laid out in ascending color order); the trailing
// K − Σ m_c columns are wildcards open to every vertex. A vertex of
// color c draws randomness only in c's block and the wildcards, so by
// Hall's theorem a K-vertex monomial survives the 2^K sieve iff every
// listed color appears at least m_c times — and, in the exact case,
// vertices of unlisted colors get all-zero rows, which excludes them
// from every surviving term with no special-casing in the DP.
//
// The full matrix is drawn before masking, so the randomness consumed
// is a pure function of (seed, round, tagMotif, K) exactly like every
// other assignment — distributed ranks reproduce solo runs.
func NewMotifAssignment(g *graph.Graph, spec *MotifSpec, seed uint64, round int) *Assignment {
	n := g.NumVertices()
	k := spec.K
	a := NewAssignment(n, k, seed, round, tagMotif)
	blockLo := make(map[int32]int, len(spec.Counts))
	blockHi := make(map[int32]int, len(spec.Counts))
	wlo := 0
	for _, c := range spec.colors() {
		blockLo[c] = wlo
		wlo += spec.Counts[c]
		blockHi[c] = wlo
	}
	// Columns [wlo, k) are wildcards and stay random for everyone;
	// within [0, wlo) a vertex keeps only its own color's block.
	for i := int32(0); i < int32(n); i++ {
		lo, hi := 0, 0
		if h, ok := blockHi[g.Label(i)]; ok {
			lo, hi = blockLo[g.Label(i)], h
		}
		row := a.u[int(i)*k : int(i)*k+k]
		for j := 0; j < wlo; j++ {
			if j < lo || j >= hi {
				row[j] = 0
			}
		}
	}
	return a
}

// motifFamily is the constrained-motif polynomial as a sweep-engine
// Family: the scan-statistics recurrence without the weight axis —
// P(i,1) = x_i, P(i,j) = Σ_u Σ_{j'} r·P(i,j')⊙P(u,j−j') — over one
// slab per level, the lane folding at level K. The local piece does
// not depend on u, so Transfer evaluates the factored form
// P(i,j) = Σ_{j'} P(i,j') ⊙ Σ_u r·P(u,j−j'): constant-multiply axpys
// per (edge, split), one Hadamard product per (vertex, split).
// Constraints live entirely in the assignment's zero pattern.
type motifFamily struct {
	g *graph.Graph // labels feed the constrained assignments
	p [][]gf.Elem  // p[j]: flat n×N2, j = 1..K
}

func (f *motifFamily) Kind() string      { return "motif" }
func (f *motifFamily) CountPhases() bool { return true }

func (f *motifFamily) NewAssignment(n int, st *laneState, round int) *Assignment {
	return NewMotifAssignment(f.g, st.Motif, st.Seed, round)
}

func (f *motifFamily) BeginRound(st *laneState) { st.total = 0 }

func (f *motifFamily) EndRound(st *laneState, round int) {
	if st.total != 0 {
		st.found, st.done = true, true
	} else if round+1 >= st.roundsTotal {
		st.done = true
	}
}

func (f *motifFamily) Alloc(e *laneRun) {
	size := e.g.NumVertices() * e.n2
	f.p = make([][]gf.Elem, e.st.K+1)
	for j := 1; j <= e.st.K; j++ {
		f.p[j] = e.opt.Arena.Grab(size)
	}
}

func (f *motifFamily) Free(e *laneRun) {
	e.opt.Arena.Put(f.p[1:]...)
	f.p = nil
}

func (f *motifFamily) InitRow(e *laneRun) {
	n, st, nb := e.g.NumVertices(), e.st, e.st.nb
	// level 1: P(i,1) = x_i; deeper levels start empty. A k=1 lane folds
	// immediately (a single constrained vertex is a valid motif).
	for i := 0; i < n; i++ {
		st.a.FillBase(f.p[1][i*nb:(i+1)*nb], int32(i), e.q0, e.opt.NoGray)
	}
	for j := 2; j < len(f.p); j++ {
		clear(f.p[j][:n*nb])
	}
	if st.K == 1 {
		st.accumulate(f.p[1][:n*nb])
	}
}

func (f *motifFamily) Transfers(e *laneRun) int { return e.st.K - 1 }

func (f *motifFamily) Transfer(e *laneRun, step int) {
	jj := step + 1
	g, opt, st, nb := e.g, e.opt, e.st, e.st.nb
	opt.obsSpan(obs.LevelName, jj, "level")
	opt.obsLevel(levelElems(g) * int64(nb))
	dst := f.p[jj]
	opt.parallelVertices(g, func(lo, hi int32) {
		av := make([]gf.Elem, nb) // per-worker neighbor sum
		var sk int64
		for i := lo; i < hi; i++ {
			nbrs := g.Neighbors(i)
			row := int(i) * nb
			for jp := 1; jp < jj; jp++ {
				local := f.p[jp][row : row+nb]
				if !gf.AnyNonZero(local) {
					sk += int64(len(nbrs)) // one dead cell per neighbor
					continue
				}
				live := false
				for _, u := range nbrs {
					urow := int(u) * nb
					piece := f.p[jj-jp][urow : urow+nb]
					if !gf.AnyNonZero(piece) {
						sk++
						continue
					}
					r := gf.Elem(1)
					if !opt.NoFingerprints {
						r = st.a.MotifCoeff(u, i, jj, jp)
					}
					gf.MulSlice16(av, piece, r)
					live = true
				}
				if live {
					// P(i,jj) += P(i,jp) ⊙ Σ_u r·P(u,jj−jp)
					gf.MulHadamardAccum(dst[row:row+nb], local, av)
					clear(av)
				}
			}
		}
		e.addSkipped(sk)
	})
	opt.obsEnd()
	if st.K == jj {
		st.accumulate(dst[:g.NumVertices()*nb])
	}
}

func (f *motifFamily) Finalize(e *laneRun) {}

// DetectMotif decides whether g contains a connected K-vertex subgraph
// whose colors satisfy spec, with one-sided failure probability at
// most opt.Epsilon (a "yes" is always correct). Always evaluated over
// GF(2^16); the Variant option is ignored.
func DetectMotif(g *graph.Graph, spec *MotifSpec, opt Options) (bool, error) {
	if err := spec.Validate(); err != nil {
		return false, err
	}
	k := spec.K
	if k > g.NumVertices() {
		return false, nil
	}
	if opt.Arena == nil {
		opt.Arena = NewArena() // share slabs across this call's rounds
	}
	st := soloLane(k, opt)
	st.Motif = spec
	if err := runLane(g, &motifFamily{g: g}, st, PlanN2(opt.N2, g.NumVertices(), k, LevelSlabs(k)), opt); err != nil {
		return false, err
	}
	return st.found, st.err
}

// motifRound evaluates the constrained-motif polynomial over all 2^K
// iterations of one assignment (nonzero ⇒ a satisfying motif exists):
// one engine sweep of a single motif lane.
func motifRound(g *graph.Graph, spec *MotifSpec, a *Assignment, opt Options) (gf.Elem, error) {
	if opt.Arena == nil {
		opt.Arena = NewArena()
	}
	st := assignedLane(a)
	st.Motif = spec
	if err := sweep(g, &motifFamily{g: g}, st, PlanN2(opt.N2, g.NumVertices(), a.K, LevelSlabs(a.K)), opt); err != nil {
		return 0, err
	}
	return st.total, nil
}

// BruteMotif answers the motif query by enumerating every connected
// K-vertex subset and checking its color histogram — the
// obviously-correct exponential oracle for DetectMotif. Small graphs
// only.
func BruteMotif(g *graph.Graph, spec *MotifSpec) bool {
	if err := spec.Validate(); err != nil {
		return false
	}
	n := g.NumVertices()
	k := spec.K
	if k > n {
		return false
	}
	set := make([]int32, 0, k)
	found := false
	var rec func(start int32)
	rec = func(start int32) {
		if found {
			return
		}
		if len(set) == k {
			if !graph.IsConnectedSubset(g, set) {
				return
			}
			hist := make(map[int32]int, k)
			for _, v := range set {
				hist[g.Label(v)]++
			}
			if spec.Admits(hist) {
				found = true
			}
			return
		}
		for v := start; v < int32(n); v++ {
			set = append(set, v)
			rec(v + 1)
			set = set[:len(set)-1]
		}
	}
	rec(0)
	return found
}
