package mld

import (
	"context"
	"errors"
	"testing"

	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/rng"
)

// The batch contract: DetectPathBatch's results are byte-identical to
// running each lane sequentially with the lane's own seeding — across
// mixed seeds, mixed k and mixed round counts — and cancellation of
// one lane or of the whole batch resolves exactly the lanes it should.
// These tests pin the lane loop.

func TestDetectPathBatchMatchesSequential(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomGNM(20+r.Intn(15), 50+r.Intn(40), r.Uint64())
		var lanes []BatchLane
		for i := 0; i < 6; i++ {
			lanes = append(lanes, BatchLane{
				K:       1 + r.Intn(8),
				Seed:    r.Uint64(),
				Epsilon: []float64{0, 0.05, 0.2}[r.Intn(3)],
				Rounds:  r.Intn(3), // 0 = derive from epsilon
			})
		}
		opt := Options{N2: []int{0, 8, 32}[r.Intn(3)], Workers: r.Intn(3)}
		got, err := DetectPathBatch(g, lanes, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range lanes {
			want, err := DetectPath(g, l.K, laneOptions(opt, l))
			if err != nil {
				t.Fatal(err)
			}
			if got[i].Err != nil {
				t.Fatalf("trial %d lane %d: unexpected error %v", trial, i, got[i].Err)
			}
			if got[i].Found != want {
				t.Fatalf("trial %d lane %d (k=%d seed=%d): batch %v sequential %v",
					trial, i, l.K, l.Seed, got[i].Found, want)
			}
		}
	}
}

func TestDetectPathBatchRoundCountsMatchSequential(t *testing.T) {
	// A lane that needs several rounds must run exactly as many rounds
	// batched as it would sequentially (per-lane assignments per round).
	g := graph.Path(12)
	lanes := []BatchLane{
		{K: 4, Seed: 3, Rounds: 3},
		{K: 9, Seed: 4, Rounds: 2},
		{K: 13, Seed: 5, Rounds: 1}, // k > n: resolves immediately
	}
	res, err := DetectPathBatch(g, lanes, Options{N2: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Found || res[0].Rounds != 1 {
		// a path graph has every P_k ≤ n: found in round 1
		t.Fatalf("lane 0: found=%v rounds=%d, want found in 1 round", res[0].Found, res[0].Rounds)
	}
	if !res[1].Found {
		t.Fatalf("lane 1: P9 in P12 not found")
	}
	if res[2].Found || res[2].Rounds != 0 || res[2].Err != nil {
		t.Fatalf("lane 2 (k>n): got %+v, want immediate false", res[2])
	}
	if res[0].TotalPhases != (16+15)/16 || res[1].TotalPhases != (512+15)/16 {
		t.Fatalf("TotalPhases wrong: %d, %d", res[0].TotalPhases, res[1].TotalPhases)
	}
}

func TestDetectPathBatchLaneCancelMasksOnlyThatLane(t *testing.T) {
	g := graph.Grid(4, 4)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	lanes := []BatchLane{
		{K: 6, Seed: 1},
		{K: 7, Seed: 2, Ctx: cancelled},
		{K: 5, Seed: 3},
	}
	opt := Options{N2: 8}
	res, err := DetectPathBatch(g, lanes, opt)
	if err != nil {
		t.Fatal(err) // a lane cancel must not abort the batch
	}
	if !errors.Is(res[1].Err, context.Canceled) {
		t.Fatalf("cancelled lane error = %v, want context.Canceled", res[1].Err)
	}
	for _, i := range []int{0, 2} {
		want, _ := DetectPath(g, lanes[i].K, laneOptions(opt, lanes[i]))
		if res[i].Err != nil || res[i].Found != want {
			t.Fatalf("surviving lane %d: got (%v, %v), want (%v, nil)", i, res[i].Found, res[i].Err, want)
		}
	}
}

func TestDetectPathBatchWholeBatchCancel(t *testing.T) {
	g := graph.Grid(4, 4)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := DetectPathBatch(g, []BatchLane{{K: 6, Seed: 1}, {K: 5, Seed: 2}},
		Options{N2: 8, Ctx: cancelled})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want context.Canceled", err)
	}
	for i, lr := range res {
		if !errors.Is(lr.Err, context.Canceled) {
			t.Fatalf("lane %d error = %v, want context.Canceled", i, lr.Err)
		}
	}
}

func TestDetectPathBatchLaneCap(t *testing.T) {
	lanes := make([]BatchLane, MaxBatchLanes+1)
	for i := range lanes {
		lanes[i] = BatchLane{K: 3, Seed: uint64(i)}
	}
	if _, err := DetectPathBatch(graph.Path(5), lanes, Options{}); err == nil {
		t.Fatal("expected lane-cap error")
	}
}

func TestDetectPathBatchNonGF16FallsBack(t *testing.T) {
	g := graph.Grid(3, 3)
	lanes := []BatchLane{{K: 4, Seed: 1}, {K: 9, Seed: 2}, {K: 5, Seed: 3}}
	opt := Options{Variant: VariantKoutis, Rounds: 4}
	res, err := DetectPathBatch(g, lanes, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lanes {
		want, err := DetectPath(g, l.K, laneOptions(opt, l))
		if err != nil || res[i].Err != nil {
			t.Fatal(err, res[i].Err)
		}
		if res[i].Found != want {
			t.Fatalf("lane %d: batch %v sequential %v", i, res[i].Found, want)
		}
	}
}

func TestBatchMixedKPrefixReuse(t *testing.T) {
	// A shallow lane next to a deep one must see exactly its own 2^k
	// iteration space at its own planned width. Pin this by checking
	// both lanes against their solo sequential runs across many seeds.
	g := graph.RandomGNM(18, 40, 5)
	opt := Options{N2: 32}
	for seed := uint64(0); seed < 12; seed++ {
		lanes := []BatchLane{
			{K: 2, Seed: seed, Rounds: 1},
			{K: 10, Seed: seed + 100, Rounds: 1},
		}
		res, err := DetectPathBatch(g, lanes, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range lanes {
			want, _ := DetectPath(g, l.K, laneOptions(opt, l))
			if res[i].Found != want {
				t.Fatalf("seed %d lane %d: batch %v sequential %v", seed, i, res[i].Found, want)
			}
		}
	}
}
