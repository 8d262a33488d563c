package core

// Microbenchmarks for the DP inner loop (Algorithm 3): one rank's share
// of one round's 2^k iterations, on a single-rank world so no
// communication overlaps the measured compute, and one round of a
// 2-rank path or motif query. Run via `make bench`.

import (
	"math/rand"
	"testing"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/partition"
)

var benchSink uint64

func benchmarkPathRound(b *testing.B, n, k, n2 int) {
	b.Helper()
	g := graph.RandomNLogN(n, 1)
	world := comm.NewLocalWorld(1, comm.CostModel{})
	p, err := buildPlan(world[0], g, Config{K: k, N1: 1, N2: n2, Seed: 1, Rounds: 1}, mld.PathSlabs)
	if err != nil {
		b.Fatal(err)
	}
	f := newPathFamily(p)
	partial := make([]uint64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := mld.NewPathAssignment(g.NumVertices(), k, 1, i%4)
		if err := p.phaseSteps(f, a, partial); err != nil {
			b.Fatal(err)
		}
	}
	benchSink = partial[0]
}

func BenchmarkPathRoundK6(b *testing.B)  { benchmarkPathRound(b, 500, 6, 16) }
func BenchmarkPathRoundK8(b *testing.B)  { benchmarkPathRound(b, 500, 8, 64) }
func BenchmarkPathRoundK10(b *testing.B) { benchmarkPathRound(b, 500, 10, 64) }

// distR2Partition is the BFS partition of g into the two parts of the
// wall-clock benchmark's dist-r2 workload, computed once and with its
// Members cache materialized, as the query service caches it.
func distR2Partition(b *testing.B, g *graph.Graph) *partition.Partition {
	b.Helper()
	part, err := partition.ByScheme(partition.SchemeBFSGrow, g, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < part.Parts; i++ {
		part.Members(i)
	}
	return part
}

// BenchmarkRunPathR2 times one round of a distributed k-path query at
// the shape of the dist-r2 workload's path queries: k = 8 on G(n, m)
// with n = 4000, m = n·ln n, two local ranks, one phase group, a cached
// BFS partition. Run via `make bench`.
func BenchmarkRunPathR2(b *testing.B) {
	const n, k, ranks = 4000, 8, 2
	g := graph.RandomNLogN(n, 1)
	part := distR2Partition(b, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{K: k, N1: ranks, Seed: uint64(i + 1), Rounds: 1, Scheme: partition.SchemeBFSGrow, Part: part, NoTiming: true}
		err := comm.RunLocal(ranks, comm.CostModel{}, func(c *comm.Comm) error {
			_, err := RunPath(c, g, cfg)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunMotifR2 times one round of a distributed motif query at
// the shape of the wall-clock benchmark's dist-r2 workload: k = 8, at
// least two colour-0 vertices and one colour-1, on G(n, m) with
// n = 4000, m = n·ln n, six uniform colours, two local ranks, one
// phase group, a BFS partition computed once (as the query service
// caches it). Run via `make bench`.
func BenchmarkRunMotifR2(b *testing.B) {
	const n, k, ranks = 4000, 8, 2
	g := graph.RandomNLogN(n, 1)
	r := rand.New(rand.NewSource(1))
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(r.Intn(6))
	}
	g.SetLabels(labels)
	spec := &mld.MotifSpec{K: k, Counts: map[int32]int{0: 2, 1: 1}}
	part := distR2Partition(b, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{N1: ranks, Seed: uint64(i + 1), Rounds: 1, Scheme: partition.SchemeBFSGrow, Part: part, NoTiming: true}
		err := comm.RunLocal(ranks, comm.CostModel{}, func(c *comm.Comm) error {
			_, err := RunMotif(c, g, spec, cfg)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
