package core

// Distributed constrained-motif goldens: the world's per-round field
// totals (each rank's share, XOR all-reduced) at two ranks, over both
// phase-group layouts (N1 = 1: two groups splitting the phases; N1 = 2:
// one group splitting the vertices) and two partitioners. Field arithmetic is exact, so any reordering of the
// motif transfer must reproduce these bytes identically. Regenerate only
// when the randomness derivation changes:
// go test ./internal/core -run TestGoldenMotifDistributed -update-golden

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/partition"
)

type coreMotifGolden struct {
	Name   string   `json:"name"`
	Totals []string `json:"totals"` // per-round hex world totals
}

func TestGoldenMotifDistributed(t *testing.T) {
	g := graph.RandomGNM(40, 120, 4)
	labels := make([]int32, g.NumVertices())
	for v := range labels {
		labels[v] = int32((v * 7 / 3) % 3)
	}
	g.SetLabels(labels)

	cases := []struct {
		scheme partition.Scheme
		n1, n2 int
		spec   *mld.MotifSpec
		noFP   bool
	}{
		{partition.SchemeBlock, 1, 8, &mld.MotifSpec{K: 5, Counts: map[int32]int{0: 2}}, false},
		{partition.SchemeBlock, 2, 8, &mld.MotifSpec{K: 5, Counts: map[int32]int{0: 2}}, false},
		{partition.SchemeBFSGrow, 1, 32, &mld.MotifSpec{K: 7, Counts: map[int32]int{0: 2, 1: 1}}, false},
		{partition.SchemeBFSGrow, 2, 32, &mld.MotifSpec{K: 7, Counts: map[int32]int{0: 2, 1: 1}}, false},
		{partition.SchemeBFSGrow, 2, 5, &mld.MotifSpec{K: 4, Counts: map[int32]int{0: 2, 1: 1, 2: 1}}, false},
		{partition.SchemeBlock, 2, 0, &mld.MotifSpec{K: 6}, false},
		{partition.SchemeBFSGrow, 1, 16, &mld.MotifSpec{K: 6, Counts: map[int32]int{2: 1}}, true},
	}
	var got []coreMotifGolden
	for ci, c := range cases {
		name := fmt.Sprintf("motif/%s/n1-%d/n2-%d/k%d/counts%d", c.scheme, c.n1, c.n2, c.spec.K, len(c.spec.Counts))
		if c.noFP {
			name += "/nofp"
		}
		seed := uint64(61 + ci)
		perRank := make([][]string, 2)
		err := comm.RunLocal(2, comm.CostModel{}, func(w *comm.Comm) error {
			cfg := Config{K: c.spec.K, N1: c.n1, N2: c.n2, Seed: seed, Rounds: 3, Scheme: c.scheme, NoFingerprints: c.noFP}
			p, err := buildPlan(w, g, cfg, mld.LevelSlabs(c.spec.K))
			if err != nil {
				return err
			}
			perRank[w.Rank()], err = roundTotals(p, newMotifFamily(p), 1, func(round int) *mld.Assignment {
				return mld.NewMotifAssignment(g, c.spec, seed, round)
			})
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(perRank[0], perRank[1]) {
			t.Fatalf("%s: ranks disagree: %v vs %v", name, perRank[0], perRank[1])
		}
		got = append(got, coreMotifGolden{Name: name, Totals: perRank[0]})
	}

	path := filepath.Join("testdata", "golden_motif_distributed.json")
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing motif goldens (run with -update-golden): %v", err)
	}
	var want []coreMotifGolden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("distributed motif goldens diverged:\n golden:  %+v\n current: %+v", want, got)
	}
}
