package mld

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// TestDetectCancelledContext: an already-cancelled context makes every
// evaluator return its error before doing any DP work.
func TestDetectCancelledContext(t *testing.T) {
	g := graph.RandomGNM(30, 80, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{Ctx: ctx}

	if _, err := DetectPath(g, 6, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("DetectPath: got %v, want context.Canceled", err)
	}
	tpl := graph.RandomTemplate(4, 2)
	if _, err := DetectTree(g, tpl, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("DetectTree: got %v, want context.Canceled", err)
	}
	wg := graph.RandomGNM(20, 50, 3)
	w := make([]int64, wg.NumVertices())
	for i := range w {
		w[i] = int64(i % 4)
	}
	wg.SetWeights(w)
	if _, err := ScanTable(wg, 4, 8, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScanTable: got %v, want context.Canceled", err)
	}
}

// TestDetectDeadlineStopsEarly: a deadline expiring mid-run aborts the
// 2^k iteration sweep between batches — the phase counter stays well
// short of the full count and the error is DeadlineExceeded.
func TestDetectDeadlineStopsEarly(t *testing.T) {
	g := graph.RandomGNM(200, 800, 2)
	const k = 18 // 2^18 iterations: seconds of work, far beyond the deadline
	rec := obs.NewRecorder(0, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	opt := Options{Ctx: ctx, Rounds: 1, N2: 32, Obs: rec}

	start := time.Now()
	_, err := DetectPath(g, k, opt)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; batches are not checking the context", elapsed)
	}
	totalPhases := int64((1 << k) / 32)
	if got := rec.Snapshot().Counter(obs.Phases); got >= totalPhases {
		t.Fatalf("executed all %d phases despite the deadline", got)
	}
}

// TestDetectCancelNoGoroutineLeak: cancelling a parallel run must not
// strand DP worker goroutines.
func TestDetectCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	g := graph.RandomGNM(100, 400, 7)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := DetectPath(g, 16, Options{Ctx: ctx, Rounds: 1, Workers: 4}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// countdownCtx reports cancellation from its (left+1)-th Err call on —
// a deterministic stand-in for "the deadline fired mid-phase".
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func countdown(calls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(calls)
	return c
}

// TestCancelLandsBetweenLevels: with the whole sweep planned as ONE
// phase, a cancellation that fires after the phase has begun still
// stops it at the next DP level — cancel latency is a level, not a
// phase, however wide the planner makes phases — and the unfinished
// phase is not counted.
func TestCancelLandsBetweenLevels(t *testing.T) {
	g := graph.Path(40)
	const k = 8
	if n2 := PlanN2(0, g.NumVertices(), k, PathSlabs); n2 != 1<<k {
		t.Fatalf("planned width %d: the test wants a single-phase sweep", n2)
	}
	// Whole-run context: the round check, the phase check and two level
	// checks pass; the third level sees the cancel.
	rec := obs.NewRecorder(0, nil)
	progressed := false
	_, err := DetectPath(g, k, Options{Rounds: 1, Ctx: countdown(4), Obs: rec,
		Progress: func(int64) { progressed = true }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DetectPath: got %v, want context.Canceled from inside the phase", err)
	}
	snap := rec.Snapshot()
	if lv := snap.Counter(obs.Levels); lv != 2 {
		t.Fatalf("ran %d levels before stopping, want 2", lv)
	}
	if ph := snap.Counter(obs.Phases); ph != 0 || progressed {
		t.Fatalf("unfinished phase was counted (phases=%d, progress=%v)", ph, progressed)
	}

	// Per-lane context: the lane is masked out mid-phase with zero
	// finished phases; its batch-mates run to their solo answers.
	lanes := []BatchLane{
		{K: k, Seed: 1, Rounds: 1},
		{K: k, Seed: 2, Rounds: 1, Ctx: countdown(3)}, // phase check + two level checks
		{K: k - 2, Seed: 3, Rounds: 1},
	}
	res, err := DetectPathBatch(g, lanes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[1].Err, context.Canceled) || res[1].Phases != 0 || res[1].Found {
		t.Fatalf("cancelled lane = %+v, want context.Canceled with no finished phase", res[1])
	}
	for _, i := range []int{0, 2} {
		if res[i].Err != nil || !res[i].Found || res[i].Phases != res[i].TotalPhases {
			t.Fatalf("surviving lane %d = %+v, want found with a complete sweep", i, res[i])
		}
	}
}
