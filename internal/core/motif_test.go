package core

import (
	"math/rand"
	"testing"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
	"github.com/midas-hpc/midas/internal/partition"
)

// TestDistributedMotifMatchesSequential: for the same seed, RunMotif's
// partitioned evaluation computes the same field totals as
// mld.DetectMotif, so answers agree exactly — across world sizes,
// batching widths, and constraint shapes (empty, partial, exact).
func TestDistributedMotifMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	graphs := []*graph.Graph{
		graph.RandomGNM(40, 100, 1),
		graph.Grid(6, 7),
		graph.BarabasiAlbert(50, 2, 3),
	}
	for gi, g := range graphs {
		n := g.NumVertices()
		labels := make([]int32, n)
		for i := range labels {
			labels[i] = int32(r.Intn(3))
		}
		g.SetLabels(labels)
		specs := []*mld.MotifSpec{
			{K: 4},                              // unconstrained
			{K: 5, Counts: map[int32]int{0: 2}}, // partial
			{K: 4, Counts: map[int32]int{0: 2, 1: 1, 2: 1}}, // exact
		}
		for si, spec := range specs {
			seed := r.Uint64()
			want, err := mld.DetectMotif(g, spec, mld.Options{Seed: seed, Rounds: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct{ n, n1, n2 int }{
				{1, 1, 4}, {2, 2, 1}, {2, 1, 8}, {4, 2, 2}, {4, 4, 16},
			} {
				cfg := Config{N1: tc.n1, N2: tc.n2, Seed: seed, Rounds: 1}
				answers := make([]bool, tc.n)
				err := comm.RunLocal(tc.n, comm.CostModel{}, func(c *comm.Comm) error {
					got, rerr := RunMotif(c, g, spec, cfg)
					if rerr != nil {
						return rerr
					}
					answers[c.Rank()] = got
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for rk := range answers {
					if answers[rk] != want {
						t.Fatalf("graph %d spec %d world %+v rank %d: distributed %v, sequential %v",
							gi, si, tc, rk, answers[rk], want)
					}
				}
			}
		}
	}
}

// TestRunMotifValidation: invalid specs and k > n resolve before any
// communication.
func TestRunMotifValidation(t *testing.T) {
	g := graph.RandomGNM(10, 20, 1)
	g.SetLabels(make([]int32, 10))
	err := comm.RunLocal(2, comm.CostModel{}, func(c *comm.Comm) error {
		if _, err := RunMotif(c, g, &mld.MotifSpec{K: 2, Counts: map[int32]int{0: 5}}, Config{Rounds: 1}); err == nil {
			return errAssert("invalid spec accepted")
		}
		found, err := RunMotif(c, g, &mld.MotifSpec{K: 15}, Config{Rounds: 1})
		if err != nil {
			return err
		}
		if found {
			return errAssert("k > n reported found")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMotifCountersPinned pins the execution counters of one sequential
// and one 2-rank motif run to exact values. They feed the α–β modeled
// clock, the N1 planner and the bench baseline's gates, so a rewrite of
// the motif transfer must charge exactly what the per-edge triple
// product charged: one skip per dead (vertex, neighbour, split) cell and
// one width-nb kernel op per live one. Rows for the other distributed
// families pin what a restructuring of their shared schedule must keep.
func TestMotifCountersPinned(t *testing.T) {
	g := graph.RandomGNM(40, 120, 4)
	labels := make([]int32, g.NumVertices())
	for v := range labels {
		labels[v] = int32(v % 4)
	}
	g.SetLabels(labels)
	// Exact: colour-3 vertices get all-zero rows, so cells are skipped.
	spec := &mld.MotifSpec{K: 6, Counts: map[int32]int{0: 2, 1: 2, 2: 2}}
	counters := []obs.Counter{obs.DPOps, obs.CellsSkipped, obs.Levels, obs.Phases, obs.HaloMsgs, obs.HaloBytes}
	check := func(name string, got func(obs.Counter) int64, want []int64) {
		t.Helper()
		for i, c := range counters {
			if v := got(c); v != want[i] {
				t.Errorf("%s: %s = %d, want %d", name, c, v, want[i])
			}
		}
	}

	rec := obs.NewRecorder(0, nil)
	if _, err := mld.DetectMotif(g, spec, mld.Options{Seed: 71, Rounds: 2, N2: 16, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	check("DetectMotif", rec.Get, []int64{89600, 7830, 20, 4, 0, 0})

	recs := make([]*obs.Recorder, 2)
	err := comm.RunLocal(2, comm.CostModel{}, func(c *comm.Comm) error {
		recs[c.Rank()] = c.EnableObs()
		_, err := RunMotif(c, g, spec, Config{N1: 2, N2: 16, Seed: 71, Rounds: 2, Scheme: partition.SchemeBFSGrow})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	check("RunMotif", func(c obs.Counter) int64 { return recs[0].Get(c) + recs[1].Get(c) }, []int64{112416, 7830, 40, 8, 32, 17408})

	// The other distributed families at two ranks, Rounds included: path
	// and tree stop at their first non-zero round, scan and max-weight
	// run every round.
	gW := graph.RandomGNM(24, 60, 3)
	wts := make([]int64, gW.NumVertices())
	for v := range wts {
		wts[v] = int64(v % 3)
	}
	gW.SetWeights(wts)
	counters = append(counters, obs.Rounds)
	bfs := Config{N1: 2, Seed: 73, Rounds: 2, Scheme: partition.SchemeBFSGrow}
	for _, row := range []struct {
		name string
		run  func(c *comm.Comm) error
		want []int64
	}{
		{"RunPath", func(c *comm.Comm) error {
			cfg := bfs
			cfg.K, cfg.N2 = 6, 16
			_, err := RunPath(c, g, cfg)
			return err
		}, []int64{98760, 0, 40, 8, 32, 17920, 2}},
		{"RunTree", func(c *comm.Comm) error {
			cfg := bfs
			cfg.N2 = 16
			_, err := RunTree(c, g, graph.RandomTemplate(6, 13), cfg)
			return err
		}, []int64{98760, 0, 40, 8, 24, 13440, 2}},
		{"RunScan", func(c *comm.Comm) error {
			cfg := bfs
			cfg.K, cfg.N2 = 4, 4
			_, err := RunScan(c, gW, ScanConfig{Config: cfg, ZMax: 4})
			return err
		}, []int64{79308, 36516, 64, 24, 200, 13600, 8}},
		{"RunMaxWeightPath", func(c *comm.Comm) error {
			cfg := bfs
			cfg.K, cfg.N2 = 4, 8
			_, _, err := RunMaxWeightPath(c, gW, cfg)
			return err
		}, []int64{55856, 3220, 24, 8, 96, 13056, 4}},
	} {
		err := comm.RunLocal(2, comm.CostModel{}, func(c *comm.Comm) error {
			recs[c.Rank()] = c.EnableObs()
			return row.run(c)
		})
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		check(row.name, func(c obs.Counter) int64 { return recs[0].Get(c) + recs[1].Get(c) }, row.want)
	}
}

type errAssert string

func (e errAssert) Error() string { return string(e) }
