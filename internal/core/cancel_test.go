package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
	"github.com/midas-hpc/midas/internal/partition"
)

// TestRunPathCancelledContext: an already-cancelled context makes every
// rank return context.Canceled before any round runs, with no rank left
// behind in a collective.
func TestRunPathCancelledContext(t *testing.T) {
	g := graph.RandomGNM(40, 120, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := comm.RunLocal(4, comm.CostModel{}, func(c *comm.Comm) error {
		_, err := RunPath(c, g, Config{K: 6, Seed: 1, Rounds: 2, Ctx: ctx})
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestRunPathDeadlineStopsEarly: a deadline expiring mid-run makes all
// ranks leave at the same phase step — far before the 2^k sweep is
// done — and the recorder proves work actually stopped.
func TestRunPathDeadlineStopsEarly(t *testing.T) {
	g := graph.RandomGNM(300, 1200, 5)
	const k = 18
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	recs := make([]*obs.Recorder, 4)
	start := time.Now()
	err := comm.RunLocal(4, comm.CostModel{}, func(c *comm.Comm) error {
		rec := c.EnableObs()
		recs[c.Rank()] = rec
		_, err := RunPath(c, g, Config{K: k, Seed: 2, Rounds: 1, N2: 32, Ctx: ctx})
		return err
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; the step sync is not checking the context", elapsed)
	}
	totalPhases := int64((1 << k) / 32)
	var phases int64
	for _, rec := range recs {
		phases += rec.Snapshot().Counter(obs.Phases)
	}
	if phases >= totalPhases {
		t.Fatalf("ranks executed all %d phases despite the deadline", phases)
	}
}

// TestRunTreeAndScanCancelled: the tree, scan, motif and max-weight
// entry points honor an already-cancelled context too.
func TestRunTreeAndScanCancelled(t *testing.T) {
	g := graph.RandomGNM(30, 90, 9)
	w := make([]int64, g.NumVertices())
	labels := make([]int32, g.NumVertices())
	for i := range w {
		w[i] = int64(i % 3)
		labels[i] = int32(i % 2)
	}
	g.SetWeights(w)
	g.SetLabels(labels)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{K: 3, Seed: 3, Rounds: 1, Ctx: ctx}

	for _, c := range []struct {
		name string
		run  func(c *comm.Comm) error
	}{
		{"RunTree", func(c *comm.Comm) error {
			_, err := RunTree(c, g, graph.RandomTemplate(4, 11), cfg)
			return err
		}},
		{"RunScan", func(c *comm.Comm) error {
			_, err := RunScan(c, g, ScanConfig{Config: cfg, ZMax: 4})
			return err
		}},
		{"RunMotif", func(c *comm.Comm) error {
			_, err := RunMotif(c, g, &mld.MotifSpec{K: 4, Counts: map[int32]int{0: 2}}, cfg)
			return err
		}},
		{"RunMaxWeightPath", func(c *comm.Comm) error {
			_, _, err := RunMaxWeightPath(c, g, cfg)
			return err
		}},
	} {
		if err := comm.RunLocal(2, comm.CostModel{}, c.run); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got %v, want context.Canceled", c.name, err)
		}
	}
}

// TestRunPathCancelNoGoroutineLeak: after a cancelled world run, the
// rank goroutines are all gone.
func TestRunPathCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	g := graph.RandomGNM(150, 600, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := comm.RunLocal(4, comm.CostModel{}, func(c *comm.Comm) error {
		_, err := RunPath(c, g, Config{K: 16, Seed: 7, Rounds: 1, N2: 32, Ctx: ctx})
		return err
	})
	if !errors.Is(err, context.DeadlineExceeded) {
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

// TestRunPathPrecomputedPartition: a Part override produces the same
// answer as letting buildPlan run the scheme itself, and a mismatched
// part count is rejected.
func TestRunPathPrecomputedPartition(t *testing.T) {
	g := graph.RandomGNM(50, 150, 21)
	cfg := Config{K: 5, Seed: 4, Rounds: 1, N1: 2}
	want := runPathWorld(t, 2, g, cfg)

	part, err := partition.ByScheme(partition.SchemeBlock, g, 2, cfg.Seed^0x70a3d70a3d70a3d7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < part.Parts; i++ {
		part.Members(i) // materialize the cache before ranks share it
	}
	cfgPart := cfg
	cfgPart.Part = part
	if got := runPathWorld(t, 2, g, cfgPart); got != want {
		t.Fatalf("precomputed partition changed the answer: %v != %v", got, want)
	}

	bad := cfg
	bad.Part = part // 2 parts, but N1 defaults to world size 4
	bad.N1 = 0
	err = comm.RunLocal(4, comm.CostModel{}, func(c *comm.Comm) error {
		_, err := RunPath(c, g, bad)
		return err
	})
	if err == nil {
		t.Fatal("mismatched precomputed partition was accepted")
	}
}
