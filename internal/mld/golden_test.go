package mld

// Refactor-equivalence goldens: exact transcripts (per-round GF totals,
// feasibility tables) of the path / tree / scanstat evaluators and the
// per-lane results of DetectPathBatch, committed to testdata. The
// arithmetic is exact and every Assignment is a pure function of
// (seed, round, tag), so a faithful restructuring of the evaluators —
// such as the Family-engine extraction — must reproduce these bytes
// identically. Regenerate ONLY when the randomness derivation itself
// changes, with: go test ./internal/mld -run TestGolden -update-golden
//
// The matrix deliberately covers the behaviors a restructuring is most
// likely to disturb: heterogeneous lane k, k=1 lanes (fold at the init
// row), shared-arena reuse across calls, per-lane mid-flight
// cancellation, batch-wide context abort, NoGray / NoFingerprints
// ablations, multi-worker vertex loops, and N2 widths that leave short
// final phases.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden transcript files")

type goldenRun struct {
	Name   string   `json:"name"`
	Totals []string `json:"totals,omitempty"` // per-round hex GF totals
	Rows   []string `json:"rows,omitempty"`   // scan: per-round "z0,z1,..." hex totals
	Found  bool     `json:"found"`
	Table  []string `json:"table,omitempty"` // entry-point table, "01" rows
	Err    string   `json:"err,omitempty"`
}

type goldenLane struct {
	Found       bool     `json:"found"`
	Rounds      int64    `json:"rounds"`
	Phases      int64    `json:"phases"`
	TotalPhases int64    `json:"total_phases"`
	Table       []string `json:"table,omitempty"`
	Err         string   `json:"err,omitempty"`
}

type goldenBatch struct {
	Name  string       `json:"name"`
	Err   string       `json:"err,omitempty"`
	Lanes []goldenLane `json:"lanes"`
}

type goldenFile struct {
	Solo    []goldenRun   `json:"solo"`
	Batches []goldenBatch `json:"batches"`
}

func hexTotal(v gf.Elem) string { return fmt.Sprintf("%04x", uint16(v)) }

func tableRows(tab [][]bool) []string {
	if tab == nil {
		return nil
	}
	rows := make([]string, 0, len(tab))
	for _, r := range tab {
		b := make([]byte, len(r))
		for i, v := range r {
			b[i] = '0'
			if v {
				b[i] = '1'
			}
		}
		rows = append(rows, string(b))
	}
	return rows
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func laneGolden(res []LaneResult) []goldenLane {
	out := make([]goldenLane, len(res))
	for i, r := range res {
		out[i] = goldenLane{
			Found: r.Found, Rounds: r.Rounds, Phases: r.Phases,
			TotalPhases: r.TotalPhases, Table: tableRows(r.Table), Err: errString(r.Err),
		}
	}
	return out
}

// goldenGraphs builds the fixed test graphs. gW carries deterministic
// weights for the scan cases.
func goldenGraphs() (gA, gB, gW *graph.Graph) {
	gA = graph.RandomGNM(14, 32, 1)
	gB = graph.RandomGNM(9, 14, 2)
	gW = graph.RandomGNM(10, 20, 3)
	w := make([]int64, gW.NumVertices())
	for v := range w {
		w[v] = int64(v % 3)
	}
	gW.SetWeights(w)
	return
}

func buildGoldenSolo(t *testing.T) []goldenRun {
	t.Helper()
	gA, gB, gW := goldenGraphs()
	var out []goldenRun

	// Raw path-round transcripts: the strongest pinning — exact field
	// totals per (assignment, options) pair.
	pathCases := []struct {
		name string
		g    *graph.Graph
		k    int
		seed uint64
		opt  Options
	}{
		{"path/gA/k5/n2-8", gA, 5, 11, Options{N2: 8}},
		{"path/gA/k5/nogray", gA, 5, 11, Options{N2: 8, NoGray: true}},
		{"path/gA/k5/nofp", gA, 5, 11, Options{N2: 8, NoFingerprints: true}},
		{"path/gA/k1", gA, 1, 11, Options{}},
		{"path/gB/k4/workers3", gB, 4, 7, Options{N2: 128, Workers: 3}},
		{"path/gB/k4/n2-5", gB, 4, 7, Options{N2: 5}},
	}
	for _, c := range pathCases {
		opt := c.opt
		if opt.Arena == nil {
			opt.Arena = NewArena()
		}
		var totals []string
		for round := 0; round < 2; round++ {
			a := NewPathAssignment(c.g.NumVertices(), c.k, c.seed, round)
			tot, err := pathRound(c.g, a, opt)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			totals = append(totals, hexTotal(tot))
		}
		found, err := DetectPath(c.g, c.k, Options{
			Seed: c.seed, Rounds: 2, N2: c.opt.N2, Workers: c.opt.Workers,
			NoGray: c.opt.NoGray, NoFingerprints: c.opt.NoFingerprints,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out = append(out, goldenRun{Name: c.name, Totals: totals, Found: found})
	}

	// Tree-round transcripts over distinct template shapes.
	treeCases := []struct {
		name string
		g    *graph.Graph
		tpl  *graph.Template
		seed uint64
		opt  Options
	}{
		{"tree/gA/path3", gA, graph.PathTemplate(3), 21, Options{N2: 8}},
		{"tree/gA/star4", gA, graph.StarTemplate(4), 21, Options{N2: 8}},
		{"tree/gB/rand5", gB, graph.RandomTemplate(5, 7), 22, Options{N2: 6, Workers: 2}},
		{"tree/gB/rand5/nogray", gB, graph.RandomTemplate(5, 7), 22, Options{N2: 6, NoGray: true}},
	}
	for _, c := range treeCases {
		opt := c.opt
		if opt.Arena == nil {
			opt.Arena = NewArena()
		}
		d := c.tpl.Decompose()
		var totals []string
		for round := 0; round < 2; round++ {
			a := NewTreeAssignment(c.g.NumVertices(), c.tpl.K(), c.seed, round)
			tot, err := treeRound(c.g, d, a, opt)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			totals = append(totals, hexTotal(tot))
		}
		found, err := DetectTree(c.g, c.tpl, Options{
			Seed: c.seed, Rounds: 2, N2: c.opt.N2, Workers: c.opt.Workers, NoGray: c.opt.NoGray,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out = append(out, goldenRun{Name: c.name, Totals: totals, Found: found})
	}

	// Scan-round transcripts: per-weight total vectors, plus the
	// entry-point table.
	scanCases := []struct {
		name string
		g    *graph.Graph
		k    int
		zmax int64
		seed uint64
		opt  Options
	}{
		{"scan/gW/k4/z6", gW, 4, 6, 31, Options{N2: 8}},
		{"scan/gW/k3/z4/workers2", gW, 3, 4, 32, Options{N2: 4, Workers: 2}},
	}
	for _, c := range scanCases {
		opt := c.opt
		if opt.Arena == nil {
			opt.Arena = NewArena()
		}
		var rows []string
		for round := 0; round < 2; round++ {
			a := NewScanAssignment(c.g.NumVertices(), c.k, c.seed, round)
			row, err := scanRound(c.g, c.k, c.zmax, a, opt)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			s := ""
			for z, v := range row {
				if z > 0 {
					s += ","
				}
				s += hexTotal(v)
			}
			rows = append(rows, s)
		}
		table, err := ScanTable(c.g, c.k, c.zmax, Options{
			Seed: c.seed, Rounds: 2, N2: c.opt.N2, Workers: c.opt.Workers,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out = append(out, goldenRun{Name: c.name, Rows: rows, Table: tableRows(table)})
	}
	return out
}

func buildGoldenBatches(t *testing.T) []goldenBatch {
	t.Helper()
	gA, _, _ := goldenGraphs()
	var out []goldenBatch

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	// Heterogeneous path batch: mixed k (prefix retirement), a k=1
	// lane, an over-sized k>n lane, a per-lane round override, and a
	// short N2 so final phases are narrow.
	pathLanes := []BatchLane{
		{K: 5, Seed: 3},
		{K: 3, Seed: 4},
		{K: 1, Seed: 5},
		{K: 4, Seed: 6, Rounds: 2},
		{K: 20, Seed: 7}, // k > n: resolves immediately
	}
	res, err := DetectPathBatch(gA, pathLanes, Options{N2: 4, Rounds: 3})
	if err != nil {
		t.Fatalf("path batch: %v", err)
	}
	out = append(out, goldenBatch{Name: "batch/path/mixed-k", Lanes: laneGolden(res)})

	// Arena reuse: the same arena serves two consecutive batches; the
	// second run must be untouched by recycled slab contents.
	arena := NewArena()
	_, err = DetectPathBatch(gA, pathLanes, Options{N2: 4, Rounds: 3, Arena: arena})
	if err != nil {
		t.Fatalf("arena batch 1: %v", err)
	}
	res, err = DetectPathBatch(gA, pathLanes, Options{N2: 4, Rounds: 3, Arena: arena})
	if err != nil {
		t.Fatalf("arena batch 2: %v", err)
	}
	out = append(out, goldenBatch{Name: "batch/path/arena-reuse", Lanes: laneGolden(res)})

	// Per-lane cancellation: the cancelled lane is masked at the first
	// phase boundary (Err=context.Canceled, zero phases) while its
	// neighbors run to completion.
	cancelLanes := []BatchLane{
		{K: 4, Seed: 8},
		{K: 4, Seed: 9, Ctx: cancelled},
		{K: 3, Seed: 10},
	}
	res, err = DetectPathBatch(gA, cancelLanes, Options{N2: 8, Rounds: 2})
	if err != nil {
		t.Fatalf("cancel batch: %v", err)
	}
	out = append(out, goldenBatch{Name: "batch/path/lane-cancel", Lanes: laneGolden(res)})

	// Batch-wide abort: an expired Options.Ctx fails the whole flight
	// open, every unresolved lane carrying the context error.
	res, err = DetectPathBatch(gA, cancelLanes[:2], Options{N2: 8, Rounds: 2, Ctx: cancelled})
	out = append(out, goldenBatch{Name: "batch/path/flight-abort", Err: errString(err), Lanes: laneGolden(res)})

	return out
}

func TestGoldenTranscripts(t *testing.T) {
	got := goldenFile{Solo: buildGoldenSolo(t), Batches: buildGoldenBatches(t)}
	path := filepath.Join("testdata", "golden_transcripts.json")
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
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
		t.Fatalf("missing golden transcripts (run with -update-golden): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want.Solo) != len(got.Solo) {
		t.Fatalf("solo case count changed: golden %d, current %d", len(want.Solo), len(got.Solo))
	}
	for i := range want.Solo {
		if !reflect.DeepEqual(want.Solo[i], got.Solo[i]) {
			t.Errorf("solo %q diverged:\n golden:  %+v\n current: %+v", want.Solo[i].Name, want.Solo[i], got.Solo[i])
		}
	}
	if len(want.Batches) != len(got.Batches) {
		t.Fatalf("batch case count changed: golden %d, current %d", len(want.Batches), len(got.Batches))
	}
	for i := range want.Batches {
		if !reflect.DeepEqual(want.Batches[i], got.Batches[i]) {
			t.Errorf("batch %q diverged:\n golden:  %+v\n current: %+v", want.Batches[i].Name, want.Batches[i], got.Batches[i])
		}
	}
}
