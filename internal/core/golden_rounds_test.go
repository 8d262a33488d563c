package core

// Per-round distributed goldens for path, tree, scan and max-weight: the
// world's field totals of each round (every rank's share, XOR
// all-reduced) at two ranks, over both phase-group layouts (N1 = 1: two
// groups splitting the phases; N1 = 2: one group splitting the
// vertices), both partitioners, ragged final phases and the NoGray and
// NoFingerprints + NoGray ablations. Scan and max-weight report one
// total per weight z. Field arithmetic is exact, so any restructuring of the
// distributed evaluators must reproduce these bytes identically.
// Regenerate only when the randomness derivation changes:
// go test ./internal/core -run TestGoldenRoundsDistributed -update-golden

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/partition"
)

const goldenRounds = 3

// hexTotals renders one round's world totals as space-separated hex.
func hexTotals(global []uint64) string {
	parts := make([]string, len(global))
	for i, t := range global {
		parts[i] = fmt.Sprintf("%04x", uint16(t))
	}
	return strings.Join(parts, " ")
}

// roundTotals runs cfg.Rounds rounds of fam through the driver and
// renders each round's world totals.
func roundTotals(p *plan, fam family, width int, assign func(round int) *mld.Assignment) ([]string, error) {
	var out []string
	err := p.sweep(fam, width, assign, func(global []uint64) bool {
		out = append(out, hexTotals(global))
		return false
	})
	return out, err
}

// pathRoundTotals returns the first n rounds' world totals of the k-path
// polynomial under cfg.
func pathRoundTotals(w *comm.Comm, g *graph.Graph, cfg Config, n int) ([]string, error) {
	cfg.Rounds = n
	p, err := buildPlan(w, g, cfg, mld.PathSlabs)
	if err != nil {
		return nil, err
	}
	return roundTotals(p, newPathFamily(p), 1, func(round int) *mld.Assignment {
		return mld.NewPathAssignment(g.NumVertices(), cfg.K, cfg.Seed, round)
	})
}

func treeRoundTotals(w *comm.Comm, g *graph.Graph, tpl *graph.Template, cfg Config, n int) ([]string, error) {
	cfg.K, cfg.Rounds = tpl.K(), n
	p, err := buildPlan(w, g, cfg, mld.LevelSlabs(cfg.K))
	if err != nil {
		return nil, err
	}
	return roundTotals(p, newTreeFamily(p, tpl.Decompose()), 1, func(round int) *mld.Assignment {
		return mld.NewTreeAssignment(g.NumVertices(), cfg.K, cfg.Seed, round)
	})
}

// scanRoundTotals covers one target size j = cfg.K.
func scanRoundTotals(w *comm.Comm, g *graph.Graph, cfg Config, zmax int64, n int) ([]string, error) {
	cfg.Rounds = n
	p, err := buildPlan(w, g, cfg, mld.WeightSlabs(cfg.K, zmax))
	if err != nil {
		return nil, err
	}
	maxw, err := maxVertexWeight(g)
	if err != nil {
		return nil, err
	}
	return roundTotals(p, newScanFamily(p, maxw, zmax), int(zmax)+1, func(round int) *mld.Assignment {
		return mld.NewScanAssignment(g.NumVertices(), cfg.K, cfg.Seed, round)
	})
}

func maxWeightRoundTotals(w *comm.Comm, g *graph.Graph, cfg Config, n int) ([]string, error) {
	cfg.Rounds = n
	maxw, err := maxVertexWeight(g)
	if err != nil {
		return nil, err
	}
	zmax := int64(cfg.K) * maxw
	p, err := buildPlan(w, g, cfg, mld.WeightSlabs(2, zmax))
	if err != nil {
		return nil, err
	}
	return roundTotals(p, newMaxWeightFamily(p, maxw, zmax), int(zmax)+1, func(round int) *mld.Assignment {
		return mld.NewMaxWeightAssignment(g.NumVertices(), cfg.K, cfg.Seed, round)
	})
}

func TestGoldenRoundsDistributed(t *testing.T) {
	gP := graph.RandomGNM(40, 120, 4)
	gW := graph.RandomGNM(24, 60, 3)
	wts := make([]int64, gW.NumVertices())
	for v := range wts {
		wts[v] = int64(v % 3)
	}
	gW.SetWeights(wts)
	tpl := graph.RandomTemplate(6, 13)

	cases := []struct {
		scheme      partition.Scheme
		n1, n2      int
		noFP, noGry bool
	}{
		{partition.SchemeBlock, 1, 8, false, false},
		{partition.SchemeBlock, 2, 8, false, false},
		{partition.SchemeBFSGrow, 1, 16, false, false},
		{partition.SchemeBFSGrow, 2, 16, false, false},
		{partition.SchemeBlock, 1, 6, false, false}, // ragged: 2^k mod 6 ≠ 0
		{partition.SchemeBFSGrow, 2, 6, false, false},
		{partition.SchemeBFSGrow, 1, 8, false, true},
		{partition.SchemeBlock, 2, 4, true, true}, // all zero: unfingerprinted terms cancel in pairs
	}
	families := []struct {
		name string
		run  func(w *comm.Comm, cfg Config) ([]string, error)
	}{
		{"path/k6", func(w *comm.Comm, cfg Config) ([]string, error) {
			cfg.K = 6
			return pathRoundTotals(w, gP, cfg, goldenRounds)
		}},
		{"tree/k6", func(w *comm.Comm, cfg Config) ([]string, error) {
			return treeRoundTotals(w, gP, tpl, cfg, goldenRounds)
		}},
		{"scan/j3/z4", func(w *comm.Comm, cfg Config) ([]string, error) {
			cfg.K = 3
			return scanRoundTotals(w, gW, cfg, 4, goldenRounds)
		}},
		{"scan/j4/z4", func(w *comm.Comm, cfg Config) ([]string, error) {
			cfg.K = 4
			return scanRoundTotals(w, gW, cfg, 4, goldenRounds)
		}},
		{"maxweight/k4", func(w *comm.Comm, cfg Config) ([]string, error) {
			cfg.K = 4
			return maxWeightRoundTotals(w, gW, cfg, goldenRounds)
		}},
	}

	var got []coreMotifGolden
	for ci, c := range cases {
		for _, fam := range families {
			name := fmt.Sprintf("%s/%s/n1-%d/n2-%d", fam.name, c.scheme, c.n1, c.n2)
			if c.noFP {
				name += "/nofp"
			}
			if c.noGry {
				name += "/nogray"
			}
			perRank := make([][]string, 2)
			err := comm.RunLocal(2, comm.CostModel{}, func(w *comm.Comm) error {
				cfg := Config{N1: c.n1, N2: c.n2, Seed: uint64(81 + ci), Scheme: c.scheme, NoFingerprints: c.noFP, NoGray: c.noGry}
				totals, err := fam.run(w, cfg)
				perRank[w.Rank()] = totals
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
	}

	path := filepath.Join("testdata", "golden_rounds_distributed.json")
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
		t.Fatalf("missing round goldens (run with -update-golden): %v", err)
	}
	var want []coreMotifGolden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("distributed round goldens diverged:\n golden:  %+v\n current: %+v", want, got)
	}
}
