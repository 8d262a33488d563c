package mld

import (
	"testing"

	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// TestDetectPathRecordsObs pins the sequential instrumentation: a
// detection run with a recorder attached must emit the round → phase →
// level span hierarchy and the analytic DP op count.
func TestDetectPathRecordsObs(t *testing.T) {
	// No edges ⇒ no k-path ⇒ every round runs (no early exit on a hit).
	g := graph.FromEdges(12, nil)
	rec := obs.NewRecorder(0, nil)
	const k, rounds = 5, 2
	opt := Options{Seed: 3, Rounds: rounds, N2: 8, Obs: rec}
	if _, err := DetectPath(g, k, opt); err != nil {
		t.Fatal(err)
	}
	s := rec.Snapshot()
	if got := s.Counter(obs.Rounds); got != rounds {
		t.Fatalf("Rounds = %d, want %d", got, rounds)
	}
	// Each round: 2^k/N2 = 4 phases, each with levels 2..k.
	wantPhases := int64(rounds * 4)
	if got := s.Counter(obs.Phases); got != wantPhases {
		t.Fatalf("Phases = %d, want %d", got, wantPhases)
	}
	wantLevels := wantPhases * int64(k-1)
	if got := s.Counter(obs.Levels); got != wantLevels {
		t.Fatalf("Levels = %d, want %d", got, wantLevels)
	}
	// Per level and batched iteration: Σdeg + n = 2m + n elements.
	wantOps := wantLevels * int64(2*g.NumEdges()+g.NumVertices()) * 8
	if got := s.Counter(obs.DPOps); got != wantOps {
		t.Fatalf("DPOps = %d, want %d", got, wantOps)
	}
	// Span hierarchy: depth 0 = rounds, 1 = phases, 2 = levels; all closed.
	depth := map[int]map[string]bool{}
	for _, sp := range s.Spans {
		if sp.Dur < 0 {
			t.Fatalf("span %q left open", sp.Name)
		}
		if depth[sp.Depth] == nil {
			depth[sp.Depth] = map[string]bool{}
		}
		depth[sp.Depth][sp.Cat] = true
	}
	for d, want := range map[int]string{0: "round", 1: "phase", 2: "level"} {
		if !depth[d][want] || len(depth[d]) != 1 {
			t.Fatalf("depth %d categories = %v, want only %q", d, depth[d], want)
		}
	}
	if rec.Depth() != 0 {
		t.Fatalf("unbalanced spans: depth %d after run", rec.Depth())
	}
}

// TestDetectTreeAndScanRecordObs covers the other sequential evaluators
// at round granularity.
func TestDetectTreeAndScanRecordObs(t *testing.T) {
	g := graph.Path(8)
	tpl := graph.PathTemplate(4)
	rec := obs.NewRecorder(0, nil)
	if _, err := DetectTree(g, tpl, Options{Seed: 1, Rounds: 2, Obs: rec}); err != nil {
		t.Fatal(err)
	}
	if got := rec.Get(obs.Rounds); got < 1 {
		t.Fatalf("tree Rounds = %d, want >= 1 (may stop early on a hit)", got)
	}
	if rec.Get(obs.Levels) < 1 {
		t.Fatalf("tree recorded no level spans")
	}

	g.SetWeights(make([]int64, g.NumVertices()))
	rec2 := obs.NewRecorder(0, nil)
	if _, err := ScanTable(g, 3, 0, Options{Seed: 1, Rounds: 1, Obs: rec2}); err != nil {
		t.Fatal(err)
	}
	if rec2.Get(obs.Rounds) != 1 { // one per sieved size: j = 3 (sizes 1, 2 are exact)
		t.Fatalf("scan Rounds = %d, want 1", rec2.Get(obs.Rounds))
	}
	if rec2.Depth() != 0 {
		t.Fatalf("scan left spans open: depth %d", rec2.Depth())
	}
}

// TestObsDisabledDetectPathAgrees asserts the nil-recorder path changes
// nothing about the answer (instrumentation is observation only).
func TestObsDisabledDetectPathAgrees(t *testing.T) {
	g := graph.RandomNLogN(60, 5)
	for _, k := range []int{3, 5} {
		plain, err := DetectPath(g, k, Options{Seed: 9, Rounds: 2})
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder(0, nil)
		instr, err := DetectPath(g, k, Options{Seed: 9, Rounds: 2, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		if plain != instr {
			t.Fatalf("k=%d: instrumented answer %v differs from plain %v", k, instr, plain)
		}
	}
}
