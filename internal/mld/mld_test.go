package mld

import (
	"testing"

	"github.com/midas-hpc/midas/internal/galois"
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/rng"
)

// --- DetectPath vs brute force ---

func TestDetectPathKnownGraphs(t *testing.T) {
	opt := Options{Seed: 1}
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
		want bool
	}{
		{"P6 has P6", graph.Path(6), 6, true},
		{"P6 lacks P7", graph.Path(6), 7, false},
		{"C5 has P5", graph.Cycle(5), 5, true},
		{"star lacks P4", graph.Star(10), 4, false},
		{"star has P3", graph.Star(10), 3, true},
		{"K5 has P5", graph.Complete(5), 5, true},
		{"grid has P9", graph.Grid(3, 3), 9, true},
		{"single vertex k=1", graph.Path(1), 1, true},
		{"k exceeds n", graph.Path(3), 4, false},
		{"single edge k=2", graph.Path(2), 2, true},
	}
	for _, tc := range cases {
		got, err := DetectPath(tc.g, tc.k, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Fatalf("%s: got %v want %v", tc.name, got, tc.want)
		}
	}
}

func TestDetectPathMatchesBruteForce(t *testing.T) {
	r := rng.New(10)
	for trial := 0; trial < 40; trial++ {
		n := 6 + r.Intn(8)
		m := r.Intn(2 * n)
		g := graph.RandomGNM(n, min(m, n*(n-1)/2), r.Uint64())
		k := 2 + r.Intn(5)
		want := graph.HasPathOfLength(g, k)
		got, err := DetectPath(g, k, Options{Seed: r.Uint64(), Epsilon: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: n=%d m=%d k=%d: detect %v, brute %v", trial, n, g.NumEdges(), k, got, want)
		}
	}
}

func TestDetectPathOneSided(t *testing.T) {
	// "no" instances must answer no for every seed: without a k-path
	// the full-support coefficient is identically zero.
	g := graph.Star(8) // no P4
	for seed := uint64(0); seed < 30; seed++ {
		got, err := DetectPath(g, 4, Options{Seed: seed, Rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Fatalf("seed %d: false positive on star", seed)
		}
	}
}

func TestDetectPathKoutisVariant(t *testing.T) {
	r := rng.New(20)
	for trial := 0; trial < 15; trial++ {
		n := 6 + r.Intn(6)
		g := graph.RandomGNM(n, min(2*n, n*(n-1)/2), r.Uint64())
		k := 2 + r.Intn(4)
		want := graph.HasPathOfLength(g, k)
		got, err := DetectPath(g, k, Options{Seed: r.Uint64(), Variant: VariantKoutis, Epsilon: 1e-5})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("koutis trial %d: k=%d got %v want %v", trial, k, got, want)
		}
	}
	// one-sidedness for Koutis too
	for seed := uint64(0); seed < 10; seed++ {
		got, _ := DetectPath(graph.Star(8), 4, Options{Seed: seed, Variant: VariantKoutis, Rounds: 1})
		if got {
			t.Fatalf("koutis false positive, seed %d", seed)
		}
	}
}

func TestDetectPathValidation(t *testing.T) {
	g := graph.Path(4)
	if _, err := DetectPath(g, 0, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := DetectPath(g, MaxK+1, Options{}); err == nil {
		t.Fatal("k>MaxK accepted")
	}
}

// TestNaiveCancellation demonstrates why Algorithm 1 verbatim is unsound
// on undirected graphs: with fingerprints disabled, the two orientations
// of every path cancel and the single-edge graph is reported path-free
// for every seed. This is the failure DESIGN.md §2 documents.
func TestNaiveCancellation(t *testing.T) {
	g := graph.Path(2) // one edge: a 2-path obviously exists
	for seed := uint64(0); seed < 20; seed++ {
		got, err := DetectPath(g, 2, Options{Seed: seed, NoFingerprints: true, Rounds: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Fatalf("seed %d: naive evaluation unexpectedly survived cancellation", seed)
		}
		// and the fix works:
		got, err = DetectPath(g, 2, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !got {
			t.Fatalf("seed %d: fingerprinted evaluation missed the edge", seed)
		}
	}
}

// TestBatchingInvariance: the round total is a mathematical quantity
// independent of batching and Gray-code strategy.
func TestBatchingInvariance(t *testing.T) {
	g := graph.RandomGNM(20, 50, 5)
	const k = 5
	a := NewAssignment(g.NumVertices(), k, 99, 0, tagPath)
	ref := mustPathRound(t, g, a, Options{N2: 1})
	for _, n2 := range []int{2, 3, 7, 16, 32, 1 << k} {
		if got := mustPathRound(t, g, a, Options{N2: n2}); got != ref {
			t.Fatalf("N2=%d: total %#x != reference %#x", n2, got, ref)
		}
	}
	if got := mustPathRound(t, g, a, Options{N2: 8, NoGray: true}); got != ref {
		t.Fatalf("NoGray: total %#x != reference %#x", got, ref)
	}
}

// mustPathRound / mustTreeRound unwrap the (total, error) round results
// for tests that never attach a context (the only error source).
func mustPathRound(t *testing.T, g *graph.Graph, a *Assignment, opt Options) gf.Elem {
	t.Helper()
	total, err := pathRound(g, a, opt)
	if err != nil {
		t.Fatalf("pathRound: %v", err)
	}
	return total
}

func mustTreeRound(t *testing.T, g *graph.Graph, d *graph.Decomposition, a *Assignment, opt Options) gf.Elem {
	t.Helper()
	total, err := treeRound(g, d, a, opt)
	if err != nil {
		t.Fatalf("treeRound: %v", err)
	}
	return total
}

// TestPathRoundMatchesSymbolicOracle builds the k-path polynomial
// explicitly in the galois.OrPoly algebra with the *same* assignment and
// fingerprints, and checks that the 2^k-iteration scalar evaluation
// equals the symbolic full-support coefficient. This ties the fast
// implementation to the proven algebra identity end to end.
func TestPathRoundMatchesSymbolicOracle(t *testing.T) {
	g := graph.RandomGNM(8, 14, 3)
	const k = 4
	a := NewAssignment(g.NumVertices(), k, 42, 0, tagPath)
	n := g.NumVertices()

	vars := make([]*galois.OrPoly, n)
	for i := 0; i < n; i++ {
		u := make([]gf.Elem, k)
		for j := 0; j < k; j++ {
			u[j] = a.U(int32(i), j)
		}
		vars[i] = galois.OrVariable(k, u)
	}
	prev := make([]*galois.OrPoly, n)
	for i := range prev {
		prev[i] = vars[i]
	}
	for j := 2; j <= k; j++ {
		cur := make([]*galois.OrPoly, n)
		for i := int32(0); i < int32(n); i++ {
			sum := galois.NewOrPoly(k)
			for _, u := range g.Neighbors(i) {
				sum = sum.Add(prev[u].MulScalar(a.EdgeCoeff(u, i, j)))
			}
			cur[i] = vars[i].Mul(sum)
		}
		prev = cur
	}
	total := galois.NewOrPoly(k)
	for i := 0; i < n; i++ {
		total = total.Add(prev[i])
	}
	want := total.FullCoeff()
	got := mustPathRound(t, g, a, Options{N2: 4})
	if got != want {
		t.Fatalf("scalar evaluation %#x != symbolic coefficient %#x", got, want)
	}
}

// TestKoutisRoundMatchesGroupAlgebraOracle does the same for the integer
// variant against the explicit Z[Z2^k] group algebra.
func TestKoutisRoundMatchesGroupAlgebraOracle(t *testing.T) {
	g := graph.RandomGNM(7, 12, 8)
	const k = 3
	opt := Options{Seed: 17}
	a := NewKoutisAssignment(g.NumVertices(), k, opt.Seed, 0)
	n := g.NumVertices()

	vars := make([]*galois.GroupAlg, n)
	for i := 0; i < n; i++ {
		vars[i] = galois.GroupVariable(k, a.v[i])
	}
	prev := make([]*galois.GroupAlg, n)
	copy(prev, vars)
	for j := 2; j <= k; j++ {
		cur := make([]*galois.GroupAlg, n)
		for i := int32(0); i < int32(n); i++ {
			sum := galois.NewGroupAlg(k)
			for _, u := range g.Neighbors(i) {
				sum = sum.Add(prev[u].MulScalar(a.EdgeCoeff(u, i, j)))
			}
			cur[i] = vars[i].Mul(sum)
		}
		prev = cur
	}
	total := galois.NewGroupAlg(k)
	for i := 0; i < n; i++ {
		total = total.Add(prev[i])
	}
	want := total.TraceXor()
	got := koutisPathRound(g, k, opt, 0)
	if got != want {
		t.Fatalf("koutis scalar trace %d != symbolic trace %d", got, want)
	}
}

// --- assignment internals ---

func TestFillBaseGrayMatchesNaive(t *testing.T) {
	a := NewAssignment(5, 6, 7, 0, tagPath)
	for _, q0 := range []uint64{0, 5, 13, 60} {
		for _, n2 := range []int{1, 3, 4} {
			if q0+uint64(n2) > 64 {
				continue
			}
			got := make([]gf.Elem, n2)
			want := make([]gf.Elem, n2)
			for i := int32(0); i < 5; i++ {
				a.FillBase(got, i, q0, false)
				a.FillBase(want, i, q0, true)
				for q := range got {
					if got[q] != want[q] {
						t.Fatalf("vertex %d q0=%d n2=%d q=%d: gray %#x naive %#x", i, q0, n2, q, got[q], want[q])
					}
				}
			}
		}
	}
}

func TestVertexValueIsMaskXor(t *testing.T) {
	a := NewAssignment(3, 4, 9, 0, tagPath)
	for i := int32(0); i < 3; i++ {
		for mask := uint64(0); mask < 16; mask++ {
			var want gf.Elem
			for j := 0; j < 4; j++ {
				if mask&(1<<uint(j)) != 0 {
					want ^= a.U(i, j)
				}
			}
			if got := a.VertexValue(i, mask); got != want {
				t.Fatalf("VertexValue(%d, %b) = %#x want %#x", i, mask, got, want)
			}
		}
	}
}

func TestAssignmentDeterministicAndRoundSeparated(t *testing.T) {
	a1 := NewAssignment(10, 5, 3, 0, tagPath)
	a2 := NewAssignment(10, 5, 3, 0, tagPath)
	if a1.U(4, 2) != a2.U(4, 2) || a1.EdgeCoeff(1, 2, 3) != a2.EdgeCoeff(1, 2, 3) {
		t.Fatal("assignment not deterministic")
	}
	b := NewAssignment(10, 5, 3, 1, tagPath)
	diff := 0
	for i := int32(0); i < 10; i++ {
		for j := 0; j < 5; j++ {
			if a1.U(i, j) != b.U(i, j) {
				diff++
			}
		}
	}
	if diff < 40 {
		t.Fatalf("rounds share randomness: only %d/50 entries differ", diff)
	}
	c := NewAssignment(10, 5, 3, 0, tagTree)
	if a1.EdgeCoeff(1, 2, 3) == c.EdgeCoeff(1, 2, 3) && a1.U(0, 0) == c.U(0, 0) {
		t.Fatal("algorithm tags share randomness")
	}
}

func TestEdgeCoeffAsymmetric(t *testing.T) {
	a := NewAssignment(10, 5, 3, 0, tagPath)
	sym := 0
	for u := int32(0); u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			if a.EdgeCoeff(u, v, 2) == a.EdgeCoeff(v, u, 2) {
				sym++
			}
		}
	}
	if sym > 2 {
		t.Fatalf("%d/45 edge coefficients symmetric; orientation breaking broken", sym)
	}
}

func TestKoutisBaseValues(t *testing.T) {
	a := NewKoutisAssignment(4, 5, 11, 0)
	for i := int32(0); i < 4; i++ {
		for tt := uint64(0); tt < 32; tt++ {
			got := a.Base(i, tt)
			if got != 0 && got != 2 {
				t.Fatalf("base value %d", got)
			}
			want := uint64(2)
			if popcount64(a.v[i]&tt)%2 == 1 {
				want = 0
			}
			if got != want {
				t.Fatalf("Base(%d,%d) = %d want %d", i, tt, got, want)
			}
		}
	}
}

func popcount64(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestGrayProperties(t *testing.T) {
	seen := map[uint64]bool{}
	for q := uint64(0); q < 256; q++ {
		g := gray(q)
		if seen[g] {
			t.Fatalf("gray not injective at %d", q)
		}
		seen[g] = true
		if q < 255 {
			if diff := g ^ gray(q+1); popcount64(diff) != 1 {
				t.Fatalf("gray(%d) and gray(%d) differ in %d bits", q, q+1, popcount64(diff))
			}
			if diff := g ^ gray(q+1); diff != 1<<uint(flipBit(q)) {
				t.Fatalf("flipBit(%d) wrong", q)
			}
		}
	}
}

func TestRoundsFor(t *testing.T) {
	if r := (Options{}).RoundsFor(10); r != 1 {
		t.Fatalf("GF default rounds %d, want 1 (per-round failure ~3e-4)", r)
	}
	if r := (Options{Variant: VariantKoutis}).RoundsFor(10); r < 10 {
		t.Fatalf("Koutis rounds %d implausibly low for ε=0.05", r)
	}
	if r := (Options{Rounds: 7}).RoundsFor(10); r != 7 {
		t.Fatal("explicit rounds ignored")
	}
	if r := (Options{Epsilon: 1e-12}).RoundsFor(10); r < 2 {
		t.Fatalf("tiny epsilon should need >1 GF round, got %d", r)
	}
}

// TestWorkersInvariance: shared-memory workers must not change any
// round total (vertex ranges write disjoint rows).
func TestWorkersInvariance(t *testing.T) {
	g := graph.RandomGNM(40, 120, 14)
	const k = 6
	a := NewAssignment(g.NumVertices(), k, 5, 0, tagPath)
	ref := mustPathRound(t, g, a, Options{N2: 8})
	for _, w := range []int{2, 3, 8} {
		if got := mustPathRound(t, g, a, Options{N2: 8, Workers: w}); got != ref {
			t.Fatalf("workers=%d changed path total: %#x != %#x", w, got, ref)
		}
	}
	tpl := graph.RandomTemplate(5, 3)
	d := tpl.Decompose()
	at := NewAssignment(g.NumVertices(), 5, 5, 0, tagTree)
	refT := mustTreeRound(t, g, d, at, Options{N2: 8})
	for _, w := range []int{2, 4} {
		if got := mustTreeRound(t, g, d, at, Options{N2: 8, Workers: w}); got != refT {
			t.Fatalf("workers=%d changed tree total: %#x != %#x", w, got, refT)
		}
	}
}

// TestDetectPathWithWorkersMatchesBruteForce runs the full detector in
// parallel mode against the oracle.
func TestDetectPathWithWorkersMatchesBruteForce(t *testing.T) {
	r := rng.New(15)
	for trial := 0; trial < 10; trial++ {
		n := 8 + r.Intn(6)
		g := graph.RandomGNM(n, 2*n, r.Uint64())
		k := 3 + r.Intn(3)
		want := graph.HasPathOfLength(g, k)
		got, err := DetectPath(g, k, Options{Seed: r.Uint64(), Epsilon: 1e-4, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: %v vs %v", trial, got, want)
		}
	}
}
