package mld

// Constrained-motif goldens: exact per-round GF totals and answers of
// the motif evaluator, committed to testdata. Field arithmetic is
// exact, so any reordering of the motif transfer (for example factoring
// the local piece out of the neighbour sum) must reproduce these bytes
// identically.
// Regenerate ONLY when the randomness derivation itself changes, with:
// go test ./internal/mld -run TestGoldenMotif -update-golden
//
// The matrix covers unconstrained, partial and exact specs, the
// NoGray / NoFingerprints ablations, multi-worker vertex loops, phase
// widths below the vector kernels' 16-element threshold and above it,
// and widths that leave a short final phase.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/midas-hpc/midas/internal/graph"
)

type goldenMotifFile struct {
	Solo []goldenRun `json:"solo"`
}

// motifGoldenGraphs builds the fixed labeled graphs: two small ones and
// one wide enough that planned phases run the vector axpy.
func motifGoldenGraphs() (gA, gB, gC *graph.Graph) {
	label := func(g *graph.Graph, colors int) *graph.Graph {
		labels := make([]int32, g.NumVertices())
		for v := range labels {
			labels[v] = int32((v * 7 / 3) % colors)
		}
		g.SetLabels(labels)
		return g
	}
	return label(graph.RandomGNM(14, 32, 1), 3),
		label(graph.RandomGNM(9, 14, 2), 2),
		label(graph.RandomGNM(40, 120, 4), 3)
}

func buildGoldenMotifSolo(t *testing.T) []goldenRun {
	t.Helper()
	gA, gB, gC := motifGoldenGraphs()
	free5 := &MotifSpec{K: 5}
	partial5 := &MotifSpec{K: 5, Counts: map[int32]int{0: 2}}
	exact4 := &MotifSpec{K: 4, Counts: map[int32]int{0: 2, 1: 1, 2: 1}}
	cases := []struct {
		name string
		g    *graph.Graph
		spec *MotifSpec
		seed uint64
		opt  Options
	}{
		{"motif/gA/k5/free/n2-8", gA, free5, 41, Options{N2: 8}},
		{"motif/gA/k5/partial/n2-8", gA, partial5, 41, Options{N2: 8}},
		{"motif/gA/k4/exact/n2-8", gA, exact4, 42, Options{N2: 8}},
		{"motif/gA/k5/partial/nogray", gA, partial5, 41, Options{N2: 8, NoGray: true}},
		{"motif/gA/k5/partial/nofp", gA, partial5, 41, Options{N2: 8, NoFingerprints: true}},
		{"motif/gA/k5/partial/n2-5", gA, partial5, 43, Options{N2: 5}},
		{"motif/gA/k1", gA, &MotifSpec{K: 1, Counts: map[int32]int{1: 1}}, 44, Options{}},
		{"motif/gB/k4/partial/workers3", gB, &MotifSpec{K: 4, Counts: map[int32]int{1: 1}}, 45, Options{N2: 128, Workers: 3}},
		{"motif/gC/k7/partial/n2-48", gC, &MotifSpec{K: 7, Counts: map[int32]int{0: 2, 1: 1}}, 46, Options{N2: 48}},
		{"motif/gC/k6/exact/planned/workers2", gC, &MotifSpec{K: 6, Counts: map[int32]int{0: 2, 1: 2, 2: 2}}, 47, Options{Workers: 2}},
		{"motif/gC/k6/free/n2-32/nofp", gC, &MotifSpec{K: 6}, 48, Options{N2: 32, NoFingerprints: true}},
	}
	var out []goldenRun
	for _, c := range cases {
		opt := c.opt
		opt.Arena = NewArena()
		var totals []string
		for round := 0; round < 3; round++ {
			a := NewMotifAssignment(c.g, c.spec, c.seed, round)
			tot, err := motifRound(c.g, c.spec, a, opt)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			totals = append(totals, hexTotal(tot))
		}
		found, err := DetectMotif(c.g, c.spec, Options{
			Seed: c.seed, Rounds: 2, N2: c.opt.N2, Workers: c.opt.Workers,
			NoGray: c.opt.NoGray, NoFingerprints: c.opt.NoFingerprints,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out = append(out, goldenRun{Name: c.name, Totals: totals, Found: found})
	}
	return out
}

func TestGoldenMotif(t *testing.T) {
	got := goldenMotifFile{Solo: buildGoldenMotifSolo(t)}
	path := filepath.Join("testdata", "golden_motif.json")
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
	var want goldenMotifFile
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("motif goldens diverged:\n golden:  %+v\n current: %+v", want, got)
	}
}
