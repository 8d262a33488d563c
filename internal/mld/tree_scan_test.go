package mld

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
	"github.com/midas-hpc/midas/internal/rng"
)

// --- DetectTree ---

func TestDetectTreeKnownCases(t *testing.T) {
	opt := Options{Seed: 2}
	grid := graph.Grid(3, 3)
	cases := []struct {
		name string
		g    *graph.Graph
		tpl  *graph.Template
		want bool
	}{
		{"grid embeds P5", grid, graph.PathTemplate(5), true},
		{"grid embeds star5", grid, graph.StarTemplate(5), true},
		{"grid lacks star6", grid, graph.StarTemplate(6), false},
		{"path lacks star4", graph.Path(6), graph.StarTemplate(4), false},
		{"star embeds star", graph.Star(6), graph.StarTemplate(5), true},
		{"binary tree in K7", graph.Complete(7), graph.BinaryTreeTemplate(7), true},
		{"single node", graph.Path(3), graph.MustTemplate(1, nil), true},
		{"template bigger than graph", graph.Path(2), graph.PathTemplate(3), false},
	}
	for _, tc := range cases {
		got, err := DetectTree(tc.g, tc.tpl, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Fatalf("%s: got %v want %v", tc.name, got, tc.want)
		}
	}
}

func TestDetectTreeMatchesBruteForce(t *testing.T) {
	r := rng.New(33)
	for trial := 0; trial < 30; trial++ {
		n := 6 + r.Intn(7)
		g := graph.RandomGNM(n, min(2*n, n*(n-1)/2), r.Uint64())
		k := 2 + r.Intn(5)
		tpl := graph.RandomTemplate(k, r.Uint64())
		want := graph.HasTreeEmbedding(g, tpl)
		got, err := DetectTree(g, tpl, Options{Seed: r.Uint64(), Epsilon: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: n=%d k=%d: detect %v brute %v", trial, n, k, got, want)
		}
	}
}

func TestDetectTreePathTemplateAgreesWithDetectPath(t *testing.T) {
	// k-Tree with a path template must agree with the k-path detector.
	r := rng.New(44)
	for trial := 0; trial < 15; trial++ {
		n := 7 + r.Intn(6)
		g := graph.RandomGNM(n, min(2*n, n*(n-1)/2), r.Uint64())
		k := 2 + r.Intn(4)
		asPath, err := DetectPath(g, k, Options{Seed: 5, Epsilon: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		asTree, err := DetectTree(g, graph.PathTemplate(k), Options{Seed: 5, Epsilon: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		if asPath != asTree {
			t.Fatalf("trial %d k=%d: path %v tree %v", trial, k, asPath, asTree)
		}
	}
}

func TestDetectTreeOneSided(t *testing.T) {
	g := graph.Path(7) // max degree 2: no star-4
	for seed := uint64(0); seed < 20; seed++ {
		got, err := DetectTree(g, graph.StarTemplate(4), Options{Seed: seed, Rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Fatalf("seed %d: false positive", seed)
		}
	}
}

func TestTreeBatchingInvariance(t *testing.T) {
	g := graph.RandomGNM(14, 30, 6)
	tpl := graph.RandomTemplate(5, 9)
	d := tpl.Decompose()
	a := NewAssignment(g.NumVertices(), 5, 77, 0, tagTree)
	ref := mustTreeRound(t, g, d, a, Options{N2: 1})
	for _, n2 := range []int{2, 5, 8, 32} {
		if got := mustTreeRound(t, g, d, a, Options{N2: n2}); got != ref {
			t.Fatalf("N2=%d: %#x != %#x", n2, got, ref)
		}
	}
}

// --- ScanTable ---

func TestScanTableMatchesBruteForce(t *testing.T) {
	r := rng.New(55)
	for trial := 0; trial < 12; trial++ {
		n := 6 + r.Intn(5)
		g := graph.RandomGNM(n, min(2*n, n*(n-1)/2), r.Uint64())
		w := make([]int64, n)
		for i := range w {
			w[i] = int64(r.Intn(4))
		}
		g.SetWeights(w)
		k := 2 + r.Intn(3)
		zmax := int64(8)
		want := BruteScanTable(g, k, zmax)
		got, err := ScanTable(g, k, zmax, Options{Seed: r.Uint64(), Epsilon: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j <= k; j++ {
			for z := int64(0); z <= zmax; z++ {
				if got[j][z] != want[j][z] {
					t.Fatalf("trial %d (n=%d m=%d k=%d): cell (%d,%d) detect %v brute %v",
						trial, n, g.NumEdges(), k, j, z, got[j][z], want[j][z])
				}
			}
		}
	}
}

func TestScanTableKnownPath(t *testing.T) {
	// P4 with weights 1,2,3,4: connected subgraphs are contiguous runs.
	g := graph.Path(4)
	g.SetWeights([]int64{1, 2, 3, 4})
	got, err := ScanTable(g, 4, 10, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		j int
		z int64
	}
	want := map[cell]bool{
		{1, 1}: true, {1, 2}: true, {1, 3}: true, {1, 4}: true,
		{2, 3}: true, {2, 5}: true, {2, 7}: true,
		{3, 6}: true, {3, 9}: true,
		{4, 10}: true,
	}
	for j := 1; j <= 4; j++ {
		for z := int64(0); z <= 10; z++ {
			if got[j][z] != want[cell{j, z}] {
				t.Fatalf("cell (%d,%d): got %v want %v", j, z, got[j][z], want[cell{j, z}])
			}
		}
	}
}

func TestScanTableValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := ScanTable(g, 2, -1, Options{}); err == nil {
		t.Fatal("negative zmax accepted")
	}
	g.SetWeights([]int64{1, -2, 0})
	if _, err := ScanTable(g, 2, 5, Options{}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := ScanTable(graph.Path(3), 0, 5, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestScanTableUnweightedCountsSizes(t *testing.T) {
	// With all weights zero, the only feasible weight is 0 and size
	// feasibility = existence of connected subgraphs of that size.
	g := graph.Cycle(5)
	g.SetWeights(make([]int64, 5))
	got, err := ScanTable(g, 4, 2, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= 4; j++ {
		if !got[j][0] {
			t.Fatalf("size %d weight 0 should be feasible on C5", j)
		}
		for z := int64(1); z <= 2; z++ {
			if got[j][z] {
				t.Fatalf("nonzero weight %d feasible on zero-weight graph", z)
			}
		}
	}
}

// zeroBaseSeed returns the first seed whose round-0 size-1 scan
// assignment gives vertex v the base value u[v][0] = 0: the size-1
// sieve's total at weight w(v) is then the sum of u[·][0] over the
// other weight-w(v) vertices.
func zeroBaseSeed(t *testing.T, n int, v int32) uint64 {
	t.Helper()
	for seed := uint64(0); seed < 1<<24; seed++ {
		if NewScanAssignment(n, 1, seed, 0).U(v, 0) == 0 {
			return seed
		}
	}
	t.Fatal("no seed zeroes the base value")
	return 0
}

// TestScanTableRowOneExact pins the size-1 false negative the sieve
// allows: at a seed where the only weight-2 vertex has base value 0, a
// one-round size-1 sieve totals 0 at weight 2 and reads cell (1, 2) as
// infeasible. Rows 1 and 2 are read off the graph instead.
func TestScanTableRowOneExact(t *testing.T) {
	g := graph.Path(3)
	g.SetWeights([]int64{0, 2, 0})
	seed := zeroBaseSeed(t, 3, 1)
	got, err := ScanTable(g, 3, 2, Options{Seed: seed, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !got[1][2] {
		t.Fatalf("seed %d: cell (1, 2) infeasible, but vertex 1 weighs 2", seed)
	}
	if ok, err := CellFeasible(g, 1, 2, Options{Seed: seed, Rounds: 1}); err != nil || !ok {
		t.Fatalf("seed %d: CellFeasible(1, 2) = %v, %v; want true", seed, ok, err)
	}
}

// TestScanRowsOneTwoMatchBruteForce compares rows 1 and 2 of ScanTable,
// and CellFeasible on every cell of them, with enumeration on small
// random weighted graphs, isolated vertices and single-vertex graphs
// included. One round, so a sieved row would miss at rate ≈ 2^-16 per
// cell; exact rows never may.
func TestScanRowsOneTwoMatchBruteForce(t *testing.T) {
	r := rng.New(57)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(8)
		g := graph.RandomGNM(n, r.Intn(n*(n-1)/2+1), r.Uint64())
		w := make([]int64, n)
		for i := range w {
			w[i] = int64(r.Intn(5))
		}
		g.SetWeights(w)
		const zmax = 6
		k := min(2, n)
		want := BruteScanTable(g, k, zmax)
		opt := Options{Seed: r.Uint64(), Rounds: 1}
		got, err := ScanTable(g, k, zmax, opt)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j <= k; j++ {
			for z := int64(0); z <= zmax; z++ {
				cell, err := CellFeasible(g, j, z, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got[j][z] != want[j][z] || cell != want[j][z] {
					t.Fatalf("trial %d (n=%d m=%d): cell (%d,%d) table %v cell %v brute %v",
						trial, n, g.NumEdges(), j, z, got[j][z], cell, want[j][z])
				}
			}
		}
	}
}

// --- extraction ---

func TestExtractPathValid(t *testing.T) {
	g := graph.RandomGNM(60, 200, 12)
	const k = 5
	has, err := DetectPath(g, k, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !has {
		t.Skip("random graph unexpectedly has no 5-path")
	}
	path, err := ExtractPath(g, k, Options{Seed: 1, Epsilon: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != k {
		t.Fatalf("extracted %d vertices, want %d", len(path), k)
	}
	seen := map[int32]bool{}
	for i, v := range path {
		if seen[v] {
			t.Fatalf("repeated vertex %d in path", v)
		}
		seen[v] = true
		if i > 0 && !g.HasEdge(path[i-1], v) {
			t.Fatalf("non-edge (%d,%d) in extracted path", path[i-1], v)
		}
	}
}

func TestExtractTreeValid(t *testing.T) {
	g := graph.Grid(6, 6)
	tpl := graph.StarTemplate(5)
	emb, err := ExtractTree(g, tpl, Options{Seed: 4, Epsilon: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if len(emb) != 5 {
		t.Fatalf("embedding size %d", len(emb))
	}
	seen := map[int32]bool{}
	for _, v := range emb {
		if seen[v] {
			t.Fatal("non-injective embedding")
		}
		seen[v] = true
	}
	for tv := int32(0); tv < 5; tv++ {
		for _, tn := range tpl.Neighbors(tv) {
			if tn > tv && !g.HasEdge(emb[tv], emb[tn]) {
				t.Fatalf("template edge (%d,%d) not preserved", tv, tn)
			}
		}
	}
}

func TestExtractPathRejectsNegativeInstance(t *testing.T) {
	if _, err := ExtractPath(graph.Star(6), 4, Options{Seed: 1}); err == nil {
		t.Fatal("extraction on negative instance should error")
	}
}

// --- benchmarks ---

func BenchmarkDetectPathK8(b *testing.B) {
	g := graph.RandomNLogN(500, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DetectPath(g, 8, Options{Seed: uint64(i), Rounds: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectTreeK8(b *testing.B) {
	g := graph.RandomNLogN(500, 1)
	tpl := graph.BinaryTreeTemplate(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DetectTree(g, tpl, Options{Seed: uint64(i), Rounds: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScanTableWorkersInvariance(t *testing.T) {
	g := graph.RandomGNM(15, 35, 4)
	w := make([]int64, 15)
	for i := range w {
		w[i] = int64(i % 3)
	}
	g.SetWeights(w)
	const k, zmax = 3, 6
	want, err := ScanTable(g, k, zmax, Options{Seed: 2, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n2 := range []int{4, 8} {
		for _, workers := range []int{1, 2, 3} {
			got, err := ScanTable(g, k, zmax, Options{Seed: 2, Rounds: 1, N2: n2, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for j := 1; j <= k; j++ {
				for z := 0; z <= zmax; z++ {
					if got[j][z] != want[j][z] {
						t.Fatalf("N2=%d Workers=%d changed cell (%d,%d)", n2, workers, j, z)
					}
				}
			}
		}
	}
}

// TestScanTableConcurrentCalls runs ScanTable calls side by side, as
// a query service does, so the race detector sees the live-range
// buffers that finished sweeps hand to later ones through rangePool.
// Every call must still return its sequential table.
func TestScanTableConcurrentCalls(t *testing.T) {
	g := graph.RandomGNM(30, 70, 6)
	w := make([]int64, g.NumVertices())
	for i := range w {
		w[i] = int64(i % 3)
	}
	g.SetWeights(w)
	const k, zmax, calls = 5, 6, 4
	want := make([][][]bool, calls)
	for c := range want {
		tab, err := ScanTable(g, k, zmax, Options{Seed: uint64(c), Rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[c] = tab
	}
	got := make([][][]bool, calls)
	errs := make([]error, calls)
	var wg sync.WaitGroup
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[c], errs[c] = ScanTable(g, k, zmax, Options{Seed: uint64(c), Rounds: 1, Workers: 2})
		}()
	}
	wg.Wait()
	for c := range got {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		if !reflect.DeepEqual(got[c], want[c]) {
			t.Fatalf("call %d: concurrent table %v, sequential %v", c, got[c], want[c])
		}
	}
}

// refScanTotals is the scan polynomial's per-weight round totals
// straight from its definition: for every iteration mask, the scalar
// DP P(i,jj,z) = Σ_u Σ_{j'} Σ_{z'} r·P(i,j',z')·P(u,jj−j',z−z') with
// r = ScanCoeff(u, i, jj, j', z'), one field element at a time.
func refScanTotals(g *graph.Graph, j int, zmax int64, a *Assignment) []gf.Elem {
	n, nz := g.NumVertices(), int(zmax)+1
	totals := make([]gf.Elem, nz)
	p := make([][][]gf.Elem, j+1) // p[jj][i][z]
	for mask := uint64(0); mask < 1<<uint(j); mask++ {
		for jj := 1; jj <= j; jj++ {
			p[jj] = make([][]gf.Elem, n)
			for i := range p[jj] {
				p[jj][i] = make([]gf.Elem, nz)
			}
		}
		for i := int32(0); i < int32(n); i++ {
			if w := g.Weight(i); w <= zmax {
				p[1][i][w] = a.VertexValue(i, mask)
			}
		}
		for jj := 2; jj <= j; jj++ {
			for i := int32(0); i < int32(n); i++ {
				for _, u := range g.Neighbors(i) {
					for jp := 1; jp < jj; jp++ {
						for zp := 0; zp < nz; zp++ {
							r := a.ScanCoeff(u, i, jj, jp, int64(zp))
							for zr := 0; zp+zr < nz; zr++ {
								p[jj][i][zp+zr] ^= gf.Mul(r, gf.Mul(p[jp][i][zp], p[jj-jp][u][zr]))
							}
						}
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for z := range totals {
				totals[z] ^= p[j][i][z]
			}
		}
	}
	return totals
}

// TestScanJoinMatchesDefinition pins the factored, strata-contiguous
// scan join to the polynomial's definition: per-round, per-weight
// totals equal refScanTotals byte for byte on 20 seeded graphs × k
// 3…5 × zmax {4, 8}, at phase widths that split the sweep (N2 4) or
// not, and at one and two workers.
func TestScanJoinMatchesDefinition(t *testing.T) {
	nonzero := 0
	for seed := uint64(0); seed < 20; seed++ {
		g := graph.RandomGNM(12, 24, seed)
		r := rng.New(seed)
		w := make([]int64, g.NumVertices())
		for i := range w {
			w[i] = int64(r.Intn(3))
		}
		g.SetWeights(w)
		for k := 3; k <= 5; k++ {
			for _, zmax := range []int64{4, 8} {
				a := NewScanAssignment(g.NumVertices(), k, seed, 0)
				want := refScanTotals(g, k, zmax, a)
				if gf.AnyNonZero(want) {
					nonzero++
				}
				for _, opt := range []Options{{N2: 4}, {N2: 32, Workers: 2}} {
					got, err := scanRound(g, k, zmax, a, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d k=%d zmax=%d %+v: totals %v, definition %v", seed, k, zmax, opt, got, want)
					}
				}
			}
		}
	}
	if nonzero < 100 {
		t.Fatalf("only %d of 120 cases have a nonzero total: the instances pin too little", nonzero)
	}
}

// TestScanCountersPinned pins the execution counters of one ScanTable
// run to exact values, as core's TestMotifCountersPinned does for
// motif. CellsSkipped counts, per (vertex, split j', live z'), a dead
// source stratum inside the vertex's live range as one, and each
// neighbour whose live range at level jj − j' (clipped to weight
// ≤ zmax − z') is empty as one.
func TestScanCountersPinned(t *testing.T) {
	g := graph.RandomGNM(40, 120, 4)
	w := make([]int64, g.NumVertices())
	for i := range w {
		w[i] = int64(i % 3)
	}
	g.SetWeights(w)
	rec := obs.NewRecorder(0, nil)
	if _, err := ScanTable(g, 5, 6, Options{Seed: 71, Rounds: 2, N2: 8, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		c    obs.Counter
		want int64
	}{{obs.Rounds, 6}, {obs.Levels, 48}, {obs.CellsSkipped, 3960}} {
		if got := rec.Get(c.c); got != c.want {
			t.Errorf("%s = %d, want %d", c.c, got, c.want)
		}
	}
}

// BenchmarkScanTableWide times one round of a scan table at the shape
// of the wall-clock benchmark's kinds-wide workload: k = 4, zmax = 8,
// on a Barabási–Albert graph with n = 10 000 and 5 edges per new
// vertex, weights uniform in 0–2, in a process that has already built
// every coefficient's form. Run via `make bench`.
func BenchmarkScanTableWide(b *testing.B) {
	const n, k, zmax = 10000, 4, 8
	g := graph.BarabasiAlbert(n, 5, 1)
	r := rng.New(1)
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(r.Intn(3))
	}
	g.SetWeights(w)
	arena := NewArena()
	buildAllTablesScrambled()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ScanTable(g, k, zmax, Options{Seed: uint64(i + 1), Rounds: 1, Workers: workers, Arena: arena}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeSweep times one round of a tree query at the shape of
// the wall-clock benchmark's kinds-wide workload: the 7-vertex
// caterpillar template on a Barabási–Albert graph with n = 10 000 and
// 5 edges per new vertex, at the planned width (one phase of 2^7), in
// a process that has already built every coefficient's form. Run via
// `make bench`.
func BenchmarkTreeSweep(b *testing.B) {
	const n = 10000
	g := graph.BarabasiAlbert(n, 5, 1)
	tpl := graph.MustTemplate(7, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {1, 4}, {2, 5}, {3, 6}})
	d := tpl.Decompose()
	arena := NewArena()
	buildAllTablesScrambled()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := NewTreeAssignment(n, tpl.K(), uint64(i+1), 0)
				total, err := treeRound(g, d, a, Options{Workers: workers, Arena: arena})
				if err != nil {
					b.Fatal(err)
				}
				sweepSink = total
			}
		})
	}
}
