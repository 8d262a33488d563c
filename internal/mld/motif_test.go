package mld

import (
	"context"
	"math/rand"
	"testing"

	"github.com/midas-hpc/midas/internal/graph"
)

// randomLabeled builds the trial's labeled graph; deterministic per
// (trial) so failures replay.
func randomLabeled(r *rand.Rand, trial int) (*graph.Graph, int) {
	n := 4 + r.Intn(8)
	m := r.Intn(n * (n - 1) / 2)
	g := graph.RandomGNM(n, m, uint64(trial))
	nc := 1 + r.Intn(3)
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(r.Intn(nc))
	}
	g.SetLabels(labels)
	return g, nc
}

// randomSpec draws a constraint: possibly empty, possibly partial,
// possibly exact (counts summing to k).
func randomSpec(r *rand.Rand, n, nc int) *MotifSpec {
	k := 1 + r.Intn(5)
	if k > n {
		k = n
	}
	counts := map[int32]int{}
	budget := k
	for c := 0; c < nc && budget > 0; c++ {
		if r.Intn(2) == 0 {
			m := 1 + r.Intn(budget)
			counts[int32(c)] = m
			budget -= m
		}
	}
	return &MotifSpec{K: k, Counts: counts}
}

// TestDetectMotifMatchesBruteForce is the differential property test:
// on 600 random labeled graphs with random multiset constraints, the
// constrained sieve must agree with exhaustive connected-subgraph
// enumeration. Three rounds put the per-case false-negative chance
// below ((2k+2)/2^16)^3 ≈ 1e-11; a single disagreement is a bug, not
// noise.
func TestDetectMotifMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 600; trial++ {
		g, nc := randomLabeled(r, trial)
		spec := randomSpec(r, g.NumVertices(), nc)
		want := BruteMotif(g, spec)
		got, err := DetectMotif(g, spec, Options{Seed: uint64(trial), Rounds: 3})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d: detect=%v brute=%v (n=%d k=%d counts=%v exact=%v)",
				trial, got, want, g.NumVertices(), spec.K, spec.Counts, spec.Exact())
		}
	}
}

// TestDetectMotifExactConstraint pins the Σ counts = K semantics:
// unlisted colors are excluded outright, so a graph whose only
// connected k-subgraphs touch an unlisted color must answer no.
func TestDetectMotifExactConstraint(t *testing.T) {
	// Path 0–1–2 colored 0,1,0. Exact {0:2} (K=2) demands a connected
	// pair of two 0s — none is adjacent. Partial {0:1} with K=2 allows
	// the 1-colored middle vertex as the wildcard-free... with one
	// wildcard slot, and succeeds.
	g := graph.FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	g.SetLabels([]int32{0, 1, 0})
	opt := Options{Seed: 5, Rounds: 4}

	found, err := DetectMotif(g, &MotifSpec{K: 2, Counts: map[int32]int{0: 2}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("exact {0:2}: no adjacent pair of 0-colored vertices exists, but detect said yes")
	}
	found, err = DetectMotif(g, &MotifSpec{K: 2, Counts: map[int32]int{0: 1}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("partial {0:1}: edge (0,1) has a 0-colored endpoint, but detect said no")
	}
}

func TestMotifSpecValidate(t *testing.T) {
	cases := []struct {
		spec *MotifSpec
		ok   bool
	}{
		{nil, false},
		{&MotifSpec{K: 0}, false},
		{&MotifSpec{K: 3}, true},
		{&MotifSpec{K: 3, Counts: map[int32]int{0: 0}}, false},
		{&MotifSpec{K: 3, Counts: map[int32]int{0: -1}}, false},
		{&MotifSpec{K: 3, Counts: map[int32]int{0: 2, 1: 2}}, false}, // sum 4 > 3
		{&MotifSpec{K: 3, Counts: map[int32]int{0: 2, 1: 1}}, true},  // exact
	}
	for i, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d (%+v): err=%v want ok=%v", i, c.spec, err, c.ok)
		}
	}
}

// TestDetectMotifCancel: an expired context aborts the sweep with its
// error.
func TestDetectMotifCancel(t *testing.T) {
	g := graph.RandomGNM(80, 320, 11)
	g.SetLabels(make([]int32, 80)) // all color 0
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := &MotifSpec{K: 14, Counts: map[int32]int{0: 14}}
	if _, err := DetectMotif(g, spec, Options{Rounds: 1, Ctx: ctx}); err != context.Canceled {
		t.Fatalf("cancel: err=%v, want context.Canceled", err)
	}
}

// TestMotifAssignmentPurity: the constrained assignment is a pure
// function of (graph labels, spec, seed, round) — two constructions
// agree cell-for-cell, and constrained columns outside a vertex's
// block/wildcard range are exactly zero.
func TestMotifAssignmentPurity(t *testing.T) {
	g := graph.FromEdges(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	g.SetLabels([]int32{0, 1, 2, 1, 0})
	spec := &MotifSpec{K: 4, Counts: map[int32]int{0: 1, 2: 1}}
	a := NewMotifAssignment(g, spec, 7, 3)
	b := NewMotifAssignment(g, spec, 7, 3)
	for i := int32(0); i < 5; i++ {
		for j := 0; j < spec.K; j++ {
			if a.U(i, j) != b.U(i, j) {
				t.Fatalf("u[%d][%d] differs between identical constructions", i, j)
			}
		}
	}
	// Layout: color 0 owns column 0, color 2 owns column 1, columns 2–3
	// are wildcards. A 1-colored vertex (unlisted) must be zero in both
	// dedicated blocks; a 0-colored vertex must be zero in color 2's.
	for j := 0; j < 2; j++ {
		if a.U(1, j) != 0 {
			t.Fatalf("unlisted-color vertex has nonzero dedicated column %d", j)
		}
	}
	if a.U(0, 1) != 0 {
		t.Fatal("color-0 vertex has nonzero value in color-2's block")
	}
	if a.U(0, 0) == 0 && a.U(0, 2) == 0 && a.U(0, 3) == 0 {
		t.Fatal("color-0 vertex is zero everywhere it is allowed")
	}
}

// BenchmarkDetectMotifWide times one round of a motif query at the
// shape of the wall-clock benchmark's kinds-wide workload: k = 6, at
// least two colour-0 vertices and one colour-1, on a Barabási–Albert
// graph with n = 10 000 and 5 edges per new vertex, six uniform
// colours, two workers, in a process that has already built every
// coefficient table. Run via `make bench`.
func BenchmarkDetectMotifWide(b *testing.B) {
	const n, k = 10000, 6
	g := graph.BarabasiAlbert(n, 5, 1)
	r := rand.New(rand.NewSource(1))
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(r.Intn(6))
	}
	g.SetLabels(labels)
	spec := &MotifSpec{K: k, Counts: map[int32]int{0: 2, 1: 1}}
	arena := NewArena()
	buildAllTablesScrambled()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DetectMotif(g, spec, Options{Seed: uint64(i + 1), Rounds: 1, Workers: 2, Arena: arena}); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzMotifVsBruteForce is the fuzzing face of the differential
// harness: arbitrary bytes pick the graph, coloring, and constraint;
// the sieve must agree with brute force. Rounds=3 keeps the per-case
// false-negative probability ≈ 1e-11, far below what any fuzz budget
// reaches.
func FuzzMotifVsBruteForce(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(42), uint64(0))
	f.Add(uint64(0xFFFFFFFF), uint64(0xFFFF))
	f.Add(uint64(7), uint64(1<<40))
	f.Fuzz(func(t *testing.T, s1, s2 uint64) {
		r := rand.New(rand.NewSource(int64(s1 ^ s2*0x9E3779B97F4A7C15)))
		n := 3 + r.Intn(10) // n ≤ 12: brute force stays instant
		m := r.Intn(n*(n-1)/2 + 1)
		g := graph.RandomGNM(n, m, s1)
		nc := 1 + r.Intn(4)
		labels := make([]int32, n)
		for i := range labels {
			labels[i] = int32(r.Intn(nc))
		}
		g.SetLabels(labels)
		spec := randomSpec(r, n, nc)
		want := BruteMotif(g, spec)
		got, err := DetectMotif(g, spec, Options{Seed: s2, Rounds: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("detect=%v brute=%v (n=%d m=%d k=%d counts=%v labels=%v)",
				got, want, n, g.NumEdges(), spec.K, spec.Counts, labels)
		}
	})
}
