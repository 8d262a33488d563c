package mld

import (
	"reflect"
	"sync"
	"testing"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
)

func TestPlanN2(t *testing.T) {
	for _, c := range []struct {
		name                 string
		explicit, n, k, slab int
		want                 int
	}{
		{"solo-deep shape", 0, 750, 11, PathSlabs, 512},
		{"dist-r2 path shape", 0, 4000, 8, PathSlabs, 128},
		{"dist-r2 motif shape", 0, 4000, 8, LevelSlabs(8), 128},
		{"burst-batch lane: 2^k caps", 0, 1000, 9, PathSlabs, 512},
		{"kinds-wide shape: 2^k caps", 0, 10000, 7, PathSlabs, 128},
		{"floor on a huge graph", 0, 5_000_000, 18, PathSlabs, 128},
		{"cap 2^k below the floor", 0, 100, 5, PathSlabs, 32},
		{"tiny graph runs the sweep in one phase", 0, 20, 10, PathSlabs, 1024},
		{"explicit wins below the floor", 8, 750, 11, PathSlabs, 8},
		{"explicit wins above the budget", 2048, 100000, 11, PathSlabs, 2048},
		{"explicit is still capped at 2^k", 4096, 750, 11, PathSlabs, 2048},
	} {
		if got := PlanN2(c.explicit, c.n, c.k, c.slab); got != c.want {
			t.Errorf("%s: PlanN2(%d, %d, %d, %d) = %d, want %d",
				c.name, c.explicit, c.n, c.k, c.slab, got, c.want)
		}
	}

	// Planned widths are powers of two inside [min(128, 2^k), 2^k], fit
	// the budget above the floor, and never widen as the state grows.
	for k := 1; k <= 20; k += 3 {
		total := 1 << uint(k)
		for _, slabs := range []int{PathSlabs, LevelSlabs(k), WeightSlabs(k, 8)} {
			prevN := total
			for n := 1; n <= 1<<22; n *= 4 {
				got := PlanN2(0, n, k, slabs)
				if got&(got-1) != 0 || got > total || got < min(minPhaseWidth, total) {
					t.Fatalf("PlanN2(0, %d, %d, %d) = %d: not a power of two in range", n, k, slabs, got)
				}
				if got > minPhaseWidth && int64(slabs)*int64(n)*int64(got)*2 > phaseStateBudget {
					t.Fatalf("PlanN2(0, %d, %d, %d) = %d busts the budget", n, k, slabs, got)
				}
				if got > prevN {
					t.Fatalf("k=%d slabs=%d: width grew %d → %d as n grew to %d", k, slabs, prevN, got, n)
				}
				prevN = got
			}
		}
	}
	if got := PlannedPhases(11, 512); got != 4 {
		t.Errorf("PlannedPhases(11, 512) = %d, want 4", got)
	}
	if got := PlannedPhases(5, 24); got != 2 {
		t.Errorf("PlannedPhases(5, 24) = %d, want 2 (short final phase)", got)
	}
}

// sweepTotals runs one engine sweep of the lane (assignment preset) at
// width n2 and returns its totals: the scan strata for a scan lane, the
// single field total otherwise.
func sweepTotals(t *testing.T, g *graph.Graph, fam Family, st *laneState, n2 int) []gf.Elem {
	t.Helper()
	if err := sweep(g, fam, st, n2, Options{Arena: NewArena()}); err != nil {
		t.Fatal(err)
	}
	if st.scan != nil {
		return append([]gf.Elem(nil), st.scan.totals...)
	}
	return []gf.Elem{st.total}
}

// TestTotalsIndependentOfPhaseWidth pins the planner's license: the
// per-round field totals — not just the yes/no they imply — are
// byte-identical at N2 = 8, 128, the planned width and 2^k, for every
// family.
func TestTotalsIndependentOfPhaseWidth(t *testing.T) {
	labeled := func(n, m int, seed uint64) *graph.Graph {
		g := graph.RandomGNM(n, m, seed)
		labels := make([]int32, n)
		weights := make([]int64, n)
		for v := range labels {
			labels[v] = int32(v % 3)
			weights[v] = int64(v % 2)
		}
		g.SetLabels(labels)
		g.SetWeights(weights)
		return g
	}
	gSmall := labeled(60, 150, 12)
	// A 9-vertex tree on n = 500 plans 256: distinct from 8, 128 and 2^k.
	gWide := labeled(500, 1000, 11)
	tpl, tplWide := graph.BinaryTreeTemplate(7), graph.BinaryTreeTemplate(9)
	spec := &MotifSpec{K: 6, Counts: map[int32]int{0: 2, 1: 1}}
	const scanJ, scanZ = 6, 3

	for _, f := range []struct {
		name  string
		g     *graph.Graph
		slabs int
		fam   func(g *graph.Graph) Family
		lane  func(g *graph.Graph, seed uint64) *laneState
	}{
		{"tree/planned-256", gWide, LevelSlabs(9), func(*graph.Graph) Family { return &treeFamily{d: tplWide.Decompose()} },
			func(g *graph.Graph, seed uint64) *laneState {
				return assignedLane(NewTreeAssignment(g.NumVertices(), 9, seed, 0))
			}},
		{"path", gSmall, PathSlabs, func(*graph.Graph) Family { return &pathFamily{} },
			func(g *graph.Graph, seed uint64) *laneState {
				return assignedLane(NewPathAssignment(g.NumVertices(), 9, seed, 0))
			}},
		{"tree", gSmall, LevelSlabs(7), func(*graph.Graph) Family { return &treeFamily{d: tpl.Decompose()} },
			func(g *graph.Graph, seed uint64) *laneState {
				return assignedLane(NewTreeAssignment(g.NumVertices(), 7, seed, 0))
			}},
		{"motif", gSmall, LevelSlabs(6), func(g *graph.Graph) Family { return &motifFamily{g: g} },
			func(g *graph.Graph, seed uint64) *laneState {
				st := assignedLane(NewMotifAssignment(g, spec, seed, 0))
				st.Motif = spec
				return st
			}},
		{"scanstat", gSmall, WeightSlabs(scanJ, scanZ), func(g *graph.Graph) Family { return &scanFamily{j: scanJ} },
			func(g *graph.Graph, seed uint64) *laneState {
				st := assignedLane(NewScanAssignment(g.NumVertices(), scanJ, seed, 0))
				st.ZMax = scanZ
				st.scan = &scanExt{nz: scanZ + 1}
				return st
			}},
	} {
		t.Run(f.name+"/lanes=1", func(t *testing.T) {
			n, k := f.g.NumVertices(), f.lane(f.g, 0).K
			planned := PlanN2(0, n, k, f.slabs)
			if f.g == gWide && planned != 256 {
				t.Fatalf("wide instance plans %d, want 256 (distinct from 8, 128 and 2^k)", planned)
			}
			var want []gf.Elem
			for _, n2 := range []int{8, 128, planned, 1 << uint(k)} {
				got := sweepTotals(t, f.g, f.fam(f.g), f.lane(f.g, 40), PlanN2(n2, n, k, f.slabs))
				if want == nil {
					want = got
					nonzero := false
					for _, v := range got {
						nonzero = nonzero || v != 0
					}
					if !nonzero {
						t.Fatalf("all totals zero at N2=%d: the instance pins nothing", n2)
					}
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("N2=%d totals %v differ from N2=8 totals %v", n2, got, want)
				}
			}
		})
	}
}

var sweepSink gf.Elem

// buildAllTablesScrambled puts the benchmarks in a long-running
// process's state: it has met every coefficient, in no order related to
// any one assignment's edge walk, so first-use order cannot flatter a
// sweep.
func buildAllTablesScrambled() {
	src, dst := make([]gf.Elem, 16), make([]gf.Elem, 16)
	for i := 0; i < 1<<16; i++ {
		gf.MulSlice16(dst, src, gf.Elem(i*40503))
	}
}

// BenchmarkPathSweepN2 times one full k-path sweep at the shape of the
// wall-clock benchmark's solo-deep workload (n = 750, m = n·ln n,
// k = 11) at the pre-planner default width, the planned width and one
// single phase — the per-phase cost the planner amortizes
// (docs/PERFORMANCE.md, "Table fetch") — and at the planned width on
// two workers. Run via `make bench`.
func BenchmarkPathSweepN2(b *testing.B) {
	const n, k = 750, 11
	g := graph.RandomNLogN(n, 1)
	a := NewPathAssignment(n, k, 1, 0)
	arena := NewArena()
	buildAllTablesScrambled()
	for _, w := range []struct {
		name        string
		n2, workers int
	}{{"128", 128, 1}, {"planned", 0, 1}, {"2^k", 1 << k, 1}, {"workers=2", 0, 2}} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				total, err := pathRound(g, a, Options{N2: w.n2, Workers: w.workers, Arena: arena})
				if err != nil {
					b.Fatal(err)
				}
				sweepSink = total
			}
		})
	}
}

// BenchmarkBurstLanes answers one burst of the wall-clock benchmark's
// burst-batch workload (12 path queries, k ∈ {7, 8, 9}, one round, on
// G(n, m) with n = 1000, m = n·ln n) two ways on two cores: as 12 solo
// DetectPath calls back to back with Workers: 2, and as serve's
// ranks = 1 batch schedule — two goroutines pulling the lanes in order,
// each lane a solo sweep with Workers: 1 (docs/BATCHING.md §3). Run via
// `make bench`.
func BenchmarkBurstLanes(b *testing.B) {
	const n, cores = 1000, 2
	g := graph.RandomNLogN(n, 1)
	arena := NewArena()
	buildAllTablesScrambled()
	lanes := make([]BatchLane, 12)
	for i := range lanes {
		lanes[i] = BatchLane{K: 7 + i%3, Seed: uint64(100 + i), Rounds: 1}
	}
	solo := func(b *testing.B, l BatchLane, workers int) {
		if _, err := DetectPath(g, l.K, Options{Seed: l.Seed, Rounds: l.Rounds, Workers: workers, Arena: arena}); err != nil {
			b.Error(err)
		}
	}
	b.Run("solo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, l := range lanes {
				solo(b, l, cores)
			}
		}
	})
	b.Run("lane-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			feed := make(chan BatchLane, len(lanes))
			for _, l := range lanes {
				feed <- l
			}
			close(feed)
			var wg sync.WaitGroup
			for w := 0; w < cores; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for l := range feed {
						solo(b, l, 1)
					}
				}()
			}
			wg.Wait()
		}
	})
}
