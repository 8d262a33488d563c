package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/partition"
	"github.com/midas-hpc/midas/internal/rng"
)

// runPathWorld runs RunPath on a fresh local world and returns the
// common answer (asserting all ranks agree).
func runPathWorld(t *testing.T, n int, g *graph.Graph, cfg Config) bool {
	t.Helper()
	answers := make([]bool, n)
	err := comm.RunLocal(n, comm.CostModel{}, func(c *comm.Comm) error {
		got, err := RunPath(c, g, cfg)
		if err != nil {
			return err
		}
		answers[c.Rank()] = got
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < n; r++ {
		if answers[r] != answers[0] {
			t.Fatalf("rank %d answered %v, rank 0 %v", r, answers[r], answers[0])
		}
	}
	return answers[0]
}

// TestDistributedPathMatchesSequential is the central cross-validation:
// for the same seed and one round, the distributed evaluation computes
// the same group-algebra total as the sequential one, so the answers
// must agree exactly — across world sizes, N1, N2, partitioners and
// graphs, on both yes- and no-instances.
func TestDistributedPathMatchesSequential(t *testing.T) {
	r := rng.New(7)
	graphs := []*graph.Graph{
		graph.RandomGNM(40, 100, 1),
		graph.Grid(6, 7),
		graph.Star(30), // no-instance for k >= 4
		graph.BarabasiAlbert(50, 2, 3),
	}
	for gi, g := range graphs {
		for _, k := range []int{3, 5} {
			seed := r.Uint64()
			want, err := mld.DetectPath(g, k, mld.Options{Seed: seed, Rounds: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct{ n, n1, n2 int }{
				{1, 1, 1}, {2, 1, 4}, {2, 2, 1}, {4, 2, 2}, {4, 4, 8},
				{6, 3, 4}, {8, 4, 32}, {8, 8, 5},
			} {
				for _, scheme := range []partition.Scheme{partition.SchemeBlock, partition.SchemeRandom, partition.SchemeBFSGrow} {
					cfg := Config{K: k, N1: tc.n1, N2: tc.n2, Seed: seed, Rounds: 1, Scheme: scheme, NoTiming: true}
					got := runPathWorld(t, tc.n, g, cfg)
					if got != want {
						t.Fatalf("graph %d k=%d N=%d N1=%d N2=%d scheme=%s: distributed %v sequential %v",
							gi, k, tc.n, tc.n1, tc.n2, scheme, got, want)
					}
				}
			}
		}
	}
}

func TestDistributedTreeMatchesSequential(t *testing.T) {
	r := rng.New(17)
	g := graph.RandomGNM(35, 90, 2)
	for trial := 0; trial < 6; trial++ {
		k := 3 + r.Intn(4)
		tpl := graph.RandomTemplate(k, r.Uint64())
		seed := r.Uint64()
		want, err := mld.DetectTree(g, tpl, mld.Options{Seed: seed, Rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct{ n, n1, n2 int }{{1, 1, 2}, {4, 2, 4}, {6, 6, 1}, {4, 4, 16}} {
			answers := make([]bool, tc.n)
			err := comm.RunLocal(tc.n, comm.CostModel{}, func(c *comm.Comm) error {
				got, err := RunTree(c, g, tpl, Config{N1: tc.n1, N2: tc.n2, Seed: seed, Rounds: 1, NoTiming: true})
				if err != nil {
					return err
				}
				answers[c.Rank()] = got
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range answers {
				if a != want {
					t.Fatalf("trial %d k=%d N=%d N1=%d: distributed %v sequential %v", trial, k, tc.n, tc.n1, a, want)
				}
			}
		}
	}
}

// TestDistributedScanMatchesSequential checks that core's per-stratum
// scan slabs and mld's vertex-major ones give the same full table: 20
// seeded graphs with weights 0–2 × k 3…5 × zmax {4, 8} × N2 {4, 8, 16},
// on one rank, on two ranks splitting the graph (N1 = 1, halo
// exchange) or the phases (N1 = 2), and on four ranks in two or four
// phase groups.
func TestDistributedScanMatchesSequential(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		g := graph.RandomGNM(18, 40, seed)
		w := make([]int64, g.NumVertices())
		r := rng.New(seed + 5)
		for i := range w {
			w[i] = int64(r.Intn(3))
		}
		g.SetWeights(w)
		for k := 3; k <= 5; k++ {
			for _, zmax := range []int64{4, 8} {
				want, err := mld.ScanTable(g, k, zmax, mld.Options{Seed: 77 + seed, Rounds: 1})
				if err != nil {
					t.Fatal(err)
				}
				for _, n2 := range []int{4, 8, 16} {
					for _, tc := range []struct{ n, n1 int }{{1, 1}, {2, 1}, {2, 2}, {4, 2}, {4, 4}} {
						var got [][]bool
						err := comm.RunLocal(tc.n, comm.CostModel{}, func(c *comm.Comm) error {
							tab, err := RunScan(c, g, ScanConfig{
								Config: Config{K: k, N1: tc.n1, N2: n2, Seed: 77 + seed, Rounds: 1, NoTiming: true},
								ZMax:   zmax,
							})
							if c.Rank() == 0 {
								got = tab
							}
							return err
						})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d k=%d zmax=%d N2=%d N=%d N1=%d: distributed %v sequential %v", seed, k, zmax, n2, tc.n, tc.n1, got, want)
						}
					}
				}
			}
		}
	}
}

// TestDistributedScanRowOneExact is mld's TestScanTableRowOneExact on
// a 2-rank world: at a seed where the only weight-2 vertex has base
// value 0, a sieved size-1 row misses cell (1, 2); the exact rows
// every rank reads off g do not.
func TestDistributedScanRowOneExact(t *testing.T) {
	g := graph.Path(3)
	g.SetWeights([]int64{0, 2, 0})
	seed := uint64(0)
	for mld.NewScanAssignment(3, 1, seed, 0).U(1, 0) != 0 {
		seed++
	}
	err := comm.RunLocal(2, comm.CostModel{}, func(c *comm.Comm) error {
		got, err := RunScan(c, g, ScanConfig{
			Config: Config{K: 3, N1: 1, N2: 2, Seed: seed, Rounds: 1, NoTiming: true},
			ZMax:   2,
		})
		if err != nil {
			return err
		}
		if !got[1][2] {
			return fmt.Errorf("rank %d seed %d: cell (1, 2) infeasible, but vertex 1 weighs 2", c.Rank(), seed)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistributedScanAgainstBruteForce(t *testing.T) {
	g := graph.Cycle(8)
	g.SetWeights([]int64{1, 0, 2, 1, 0, 1, 2, 0})
	const k, zmax = 4, 5
	want := mld.BruteScanTable(g, k, zmax)
	err := comm.RunLocal(4, comm.CostModel{}, func(c *comm.Comm) error {
		got, err := RunScan(c, g, ScanConfig{
			Config: Config{K: k, N1: 2, N2: 2, Seed: 3, Epsilon: 1e-4, NoTiming: true},
			ZMax:   zmax,
		})
		if err != nil {
			return err
		}
		for j := 1; j <= k; j++ {
			for z := 0; z <= zmax; z++ {
				if got[j][z] != want[j][z] {
					return fmt.Errorf("cell (%d,%d): %v vs brute %v", j, z, got[j][z], want[j][z])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.Path(10)
	// N1 does not divide N
	err := comm.RunLocal(4, comm.CostModel{}, func(c *comm.Comm) error {
		_, err := RunPath(c, g, Config{K: 3, N1: 3, Seed: 1})
		if err == nil {
			return fmt.Errorf("N1=3 with N=4 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// bad k
	err = comm.RunLocal(1, comm.CostModel{}, func(c *comm.Comm) error {
		if _, err := RunPath(c, g, Config{K: 0}); err == nil {
			return fmt.Errorf("k=0 accepted")
		}
		if _, err := RunPath(c, g, Config{K: mld.MaxK + 1}); err == nil {
			return fmt.Errorf("k>max accepted")
		}
		if _, err := RunScan(c, g, ScanConfig{Config: Config{K: 2}, ZMax: -1}); err == nil {
			return fmt.Errorf("negative zmax accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// bad scheme
	err = comm.RunLocal(2, comm.CostModel{}, func(c *comm.Comm) error {
		_, err := RunPath(c, g, Config{K: 3, N1: 2, Scheme: "metis"})
		if err == nil {
			return fmt.Errorf("unknown scheme accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKLargerThanGraphIsNo(t *testing.T) {
	g := graph.Path(3)
	if got := runPathWorld(t, 2, g, Config{K: 5, N1: 2, Seed: 1, NoTiming: true}); got {
		t.Fatal("k > n should be a trivial no")
	}
}

func TestRaggedPhaseCounts(t *testing.T) {
	// 2^k not divisible by N2, phases not divisible by group count:
	// exercise the ragged paths. k=5 → 32 iterations; N2=5 → 7 phases;
	// N=6, N1=2 → 3 groups → 3 steps with idle groups in the last.
	g := graph.RandomGNM(25, 60, 4)
	want, err := mld.DetectPath(g, 5, mld.Options{Seed: 11, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := runPathWorld(t, 6, g, Config{K: 5, N1: 2, N2: 5, Seed: 11, Rounds: 1, NoTiming: true}); got != want {
		t.Fatalf("ragged run: %v vs sequential %v", got, want)
	}
}

// TestPhaseWidthPlanAndIndependence: an unset Config.N2 resolves to
// mld.PlanN2 of the GLOBAL shape on every rank (never of the rank's own
// share), and a 2-rank round's all-reduced field total is byte-identical
// at N2 = 8, 128, the planned width and 2^k.
func TestPhaseWidthPlanAndIndependence(t *testing.T) {
	for _, c := range []struct{ n, k, slabs, want int }{
		{750, 11, mld.PathSlabs, 512},          // solo-deep's shape
		{4000, 8, mld.PathSlabs, 128},          // dist-r2's path shape
		{4000, 8, mld.LevelSlabs(8), 128},      // dist-r2's motif shape
		{60, 6, mld.WeightSlabs(6, 3), 1 << 6}, // 2^k caps
	} {
		cfg, err := Config{K: c.k}.withDefaults(2, c.n, c.slabs)
		if err != nil {
			t.Fatal(err)
		}
		if want := mld.PlanN2(0, c.n, c.k, c.slabs); cfg.N2 != want || want != c.want {
			t.Errorf("withDefaults(n=%d k=%d slabs=%d): N2=%d, mld.PlanN2=%d, want %d",
				c.n, c.k, c.slabs, cfg.N2, want, c.want)
		}
	}
	if cfg, _ := (Config{K: 11, N2: 40}).withDefaults(2, 750, mld.PathSlabs); cfg.N2 != 40 {
		t.Errorf("explicit N2=40 resolved to %d", cfg.N2)
	}

	const n, k = 1400, 9 // plans 256: distinct from 8, 128 and 2^k
	g := graph.RandomGNM(n, 3*n, 11)
	a := mld.NewPathAssignment(n, k, 5, 0)
	var want uint64
	for i, n2 := range []int{8, 128, 0, 1 << k} {
		totals := make([]uint64, 2)
		err := comm.RunLocal(2, comm.CostModel{}, func(c *comm.Comm) error {
			p, err := buildPlan(c, g, Config{K: k, N1: 2, N2: n2, Seed: 5, NoTiming: true}, mld.PathSlabs)
			if err != nil {
				return err
			}
			if n2 == 0 && p.cfg.N2 != 256 {
				return fmt.Errorf("rank %d planned N2=%d, want 256", c.Rank(), p.cfg.N2)
			}
			local := make([]uint64, 1)
			if err := p.phaseSteps(newPathFamily(p), a, local); err != nil {
				return err
			}
			totals[c.Rank()] = c.AllreduceXor(local)[0]
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if totals[0] != totals[1] {
			t.Fatalf("N2=%d: ranks disagree (%#x vs %#x)", n2, totals[0], totals[1])
		}
		if i == 0 {
			if want = totals[0]; want == 0 {
				t.Fatal("total is zero: the instance pins nothing")
			}
		} else if totals[0] != want {
			t.Fatalf("N2=%d total %#x differs from N2=8 total %#x", n2, totals[0], want)
		}
	}
}

func TestMultiRoundEarlyExit(t *testing.T) {
	// A yes-instance with many rounds should still answer yes and all
	// ranks must exit together (no hang).
	g := graph.Path(8)
	if got := runPathWorld(t, 4, g, Config{K: 6, N1: 2, Seed: 2, Rounds: 5, NoTiming: true}); !got {
		t.Fatal("yes-instance missed")
	}
}

func TestHaloPlanSymmetry(t *testing.T) {
	// For every pair of parts, the sender's sendTo list must equal the
	// receiver's recvFrom list — build plans for all ranks and check.
	g := graph.RandomGNM(30, 80, 8)
	plans := make([]*plan, 4)
	err := comm.RunLocal(4, comm.CostModel{}, func(c *comm.Comm) error {
		p, err := buildPlan(c, g, Config{K: 4, N1: 4, N2: 2, Seed: 6}, mld.PathSlabs)
		if err != nil {
			return err
		}
		plans[c.Rank()] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		for _, send := range p.sendTo {
			peer := plans[send.part]
			var match *haloList
			for i := range peer.recvFrom {
				if peer.recvFrom[i].part == p.myPart {
					match = &peer.recvFrom[i]
				}
			}
			if match == nil {
				t.Fatalf("part %d sends to %d but peer has no recv list", p.myPart, send.part)
			}
			if len(match.verts) != len(send.verts) {
				t.Fatalf("halo length mismatch %d→%d: %d vs %d", p.myPart, send.part, len(send.verts), len(match.verts))
			}
			for i := range send.verts {
				if send.verts[i] != match.verts[i] {
					t.Fatalf("halo vertex order mismatch %d→%d at %d", p.myPart, send.part, i)
				}
			}
		}
	}
}

func TestOwnershipPartitionInvariants(t *testing.T) {
	g := graph.RandomGNM(50, 120, 2)
	counts := make([]int, 50)
	err := comm.RunLocal(3, comm.CostModel{}, func(c *comm.Comm) error {
		p, err := buildPlan(c, g, Config{K: 4, N1: 3, Seed: 1}, mld.PathSlabs)
		if err != nil {
			return err
		}
		for _, v := range p.owned {
			counts[v]++
		}
		// every neighbor of an owned vertex must have a slot
		for _, v := range p.owned {
			for _, u := range g.Neighbors(v) {
				if p.slotOf[u] < 0 {
					return fmt.Errorf("neighbor %d of owned %d has no slot", u, v)
				}
			}
		}
		// vertOf inverts slotOf
		for sl := 0; sl < p.nSlots; sl++ {
			if p.slotOf[p.vertOf[sl]] != int32(sl) {
				return fmt.Errorf("vertOf/slotOf mismatch at slot %d", sl)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, cnt := range counts {
		if cnt != 1 {
			t.Fatalf("vertex %d owned by %d ranks", v, cnt)
		}
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	g := graph.RandomGNM(60, 150, 3)
	comms, err := comm.RunLocalInspect(4, comm.DefaultCostModel(), func(c *comm.Comm) error {
		_, err := RunPath(c, g, Config{K: 6, N1: 2, N2: 8, Seed: 5, Rounds: 1})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if mk := comm.MaxClock(comms); mk <= 0 {
		t.Fatalf("makespan %v; compute timing not recorded", mk)
	}
	s := comm.TotalStats(comms)
	if s.MsgsSent == 0 || s.BytesSent == 0 {
		t.Fatalf("no traffic recorded: %+v", s)
	}
}

func TestAblationVariantsStillCorrect(t *testing.T) {
	g := graph.Grid(5, 5)
	want, _ := mld.DetectPath(g, 5, mld.Options{Seed: 21, Rounds: 1})
	if got := runPathWorld(t, 2, g, Config{K: 5, N1: 2, Seed: 21, Rounds: 1, NoGray: true, NoTiming: true}); got != want {
		t.Fatal("NoGray changed the answer")
	}
}

// TestDistributedPathRandomConfigsProperty drives random (N, N1, N2,
// scheme, k, graph) combinations through the distributed ↔ sequential
// equivalence — a property sweep beyond the fixed tables above.
func TestDistributedPathRandomConfigsProperty(t *testing.T) {
	r := rng.New(0xC0FFEE)
	schemes := []partition.Scheme{
		partition.SchemeBlock, partition.SchemeRandom,
		partition.SchemeBFSGrow, partition.SchemeMultilevel,
	}
	for trial := 0; trial < 25; trial++ {
		n := 10 + r.Intn(30)
		g := graph.RandomGNM(n, min(3*n, n*(n-1)/2), r.Uint64())
		k := 2 + r.Intn(5)
		world := 1 << r.Intn(4) // 1,2,4,8
		divs := []int{}
		for d := 1; d <= world; d++ {
			if world%d == 0 {
				divs = append(divs, d)
			}
		}
		n1 := divs[r.Intn(len(divs))]
		n2 := 1 + r.Intn(1<<uint(k))
		scheme := schemes[r.Intn(len(schemes))]
		seed := r.Uint64()
		want, err := mld.DetectPath(g, k, mld.Options{Seed: seed, Rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{K: k, N1: n1, N2: n2, Seed: seed, Rounds: 1, Scheme: scheme, NoTiming: true}
		if got := runPathWorld(t, world, g, cfg); got != want {
			t.Fatalf("trial %d: n=%d k=%d N=%d N1=%d N2=%d %s: %v vs %v",
				trial, n, k, world, n1, n2, scheme, got, want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestEmptyParts: more parts than vertices leaves some ranks owning
// nothing; the algorithm must still complete and agree everywhere.
func TestEmptyParts(t *testing.T) {
	g := graph.Path(3) // 3 vertices, 4 parts
	want, err := mld.DetectPath(g, 3, mld.Options{Seed: 7, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := runPathWorld(t, 4, g, Config{K: 3, N1: 4, N2: 2, Seed: 7, Rounds: 1, NoTiming: true}); got != want {
		t.Fatalf("empty-part world: %v vs sequential %v", got, want)
	}
}
