package core

// Config.Progress contract: world rank 0 (only) reports monotone
// global sweep progress reaching exactly (done, total) = (numPhases,
// numPhases) by the end of each round, for every distributed family.

import (
	"sync"
	"testing"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
)

func TestRunPathProgressRankZeroMonotone(t *testing.T) {
	g := graph.RandomGNM(40, 120, 7)
	w := make([]int64, g.NumVertices())
	labels := make([]int32, g.NumVertices())
	for i := range w {
		w[i] = int64(i % 3)
		labels[i] = int32(i % 2)
	}
	g.SetWeights(w)
	g.SetLabels(labels)
	// Every case sweeps 16 phases but scan (2^3 / 2 = 4) in one round.
	for _, c := range []struct {
		name      string
		numPhases int64
		run       func(c *comm.Comm, cfg Config) error
	}{
		{"path", 16, func(c *comm.Comm, cfg Config) error {
			cfg.K, cfg.N2 = 10, 64
			_, err := RunPath(c, g, cfg)
			return err
		}},
		{"tree", 16, func(c *comm.Comm, cfg Config) error {
			cfg.N2 = 16
			_, err := RunTree(c, g, graph.RandomTemplate(8, 5), cfg)
			return err
		}},
		{"motif", 16, func(c *comm.Comm, cfg Config) error {
			cfg.N2 = 4
			_, err := RunMotif(c, g, &mld.MotifSpec{K: 6, Counts: map[int32]int{0: 3}}, cfg)
			return err
		}},
		{"scan", 4, func(c *comm.Comm, cfg Config) error {
			cfg.K, cfg.N2 = 3, 2
			_, err := RunScan(c, g, ScanConfig{Config: cfg, ZMax: 4})
			return err
		}},
		{"maxweight", 16, func(c *comm.Comm, cfg Config) error {
			cfg.K, cfg.N2 = 6, 4
			_, _, err := RunMaxWeightPath(c, g, cfg)
			return err
		}},
	} {
		var mu sync.Mutex
		var fromRanks []int
		var dones, totals []int64
		err := comm.RunLocal(4, comm.CostModel{}, func(w *comm.Comm) error {
			rank := w.Rank()
			return c.run(w, Config{Seed: 3, Rounds: 1, Progress: func(done, total int64) {
				mu.Lock()
				fromRanks = append(fromRanks, rank)
				dones = append(dones, done)
				totals = append(totals, total)
				mu.Unlock()
			}})
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(dones) == 0 {
			t.Fatalf("%s: Progress never called", c.name)
		}
		for _, r := range fromRanks {
			if r != 0 {
				t.Fatalf("%s: Progress called from rank %d, want rank 0 only", c.name, r)
			}
		}
		// Every report carries the round total, done climbs monotonically
		// and finishes exactly at the total.
		prev := int64(0)
		for i, d := range dones {
			if totals[i] != c.numPhases {
				t.Fatalf("%s: report %d total = %d, want %d", c.name, i, totals[i], c.numPhases)
			}
			if d < prev || d > c.numPhases {
				t.Fatalf("%s: report %d done = %d not monotone within [%d, %d]", c.name, i, d, prev, c.numPhases)
			}
			prev = d
		}
		if prev != c.numPhases {
			t.Fatalf("%s: final done = %d, want %d", c.name, prev, c.numPhases)
		}
	}
}

func TestRunPathProgressGroupedClamped(t *testing.T) {
	// Two groups of two ranks sweep concurrently: the joint done count
	// advances by the group count per step but must clamp at the phase
	// total even when it does not divide evenly.
	g := graph.RandomGNM(40, 120, 7)
	var mu sync.Mutex
	var dones []int64
	err := comm.RunLocal(4, comm.CostModel{}, func(c *comm.Comm) error {
		cfg := Config{
			K: 9, N1: 2, N2: 128, Seed: 3, Rounds: 1, // 2^9/128 = 4 phases, 2 groups
			Progress: func(done, total int64) {
				mu.Lock()
				dones = append(dones, done)
				mu.Unlock()
				if total != 4 {
					t.Errorf("total = %d, want 4", total)
				}
			},
		}
		_, err := RunPath(c, g, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) == 0 {
		t.Fatal("Progress never called")
	}
	for i, d := range dones {
		if d > 4 {
			t.Fatalf("report %d done = %d exceeds the phase total", i, d)
		}
	}
	if dones[len(dones)-1] != 4 {
		t.Fatalf("final done = %d, want 4", dones[len(dones)-1])
	}
}
