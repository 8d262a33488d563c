package core

// Microbenchmark for the DP inner loop (Algorithm 3): one rank's share
// of one round's 2^k iterations, on a single-rank world so no
// communication overlaps the measured compute. Run via `make bench`.

import (
	"testing"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
)

var benchSink gf.Elem

func benchmarkPathRound(b *testing.B, n, k, n2 int) {
	b.Helper()
	g := graph.RandomNLogN(n, 1)
	world := comm.NewLocalWorld(1, comm.CostModel{})
	p, err := buildPlan(world[0], g, Config{K: k, N1: 1, N2: n2, Seed: 1, Rounds: 1}, 1, mld.PathSlabs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := mld.NewPathAssignment(g.NumVertices(), k, 1, i%4)
		benchSink, _ = p.pathRoundLocal(a)
	}
}

func BenchmarkPathRoundK6(b *testing.B)  { benchmarkPathRound(b, 500, 6, 16) }
func BenchmarkPathRoundK8(b *testing.B)  { benchmarkPathRound(b, 500, 8, 64) }
func BenchmarkPathRoundK10(b *testing.B) { benchmarkPathRound(b, 500, 10, 64) }
