package main

import (
	"strings"
	"testing"

	"github.com/midas-hpc/midas/internal/harness"
)

func mkReport(runs ...harness.RunRecord) harness.Report {
	return harness.Report{Schema: harness.BenchSchemaVersion, Runs: runs}
}

func mkRun(dataset string, k int, msgs, dpops int64, answer bool) harness.RunRecord {
	return harness.RunRecord{
		Dataset: dataset, K: k, N: 4, Answer: answer,
		Msgs: msgs, Bytes: msgs * 100,
		Counters: map[string]int64{
			"dp-ops": dpops, "halo-msgs": msgs, "halo-bytes": msgs * 80,
			"rounds": 1, "phases": 4, "levels": int64(k - 1),
		},
	}
}

func TestCompareClean(t *testing.T) {
	old := mkReport(mkRun("er", 4, 100, 5000, true))
	neu := mkReport(mkRun("er", 4, 100, 5000, true))
	findings, _ := Compare(old, neu, 0.10)
	if len(findings) != 0 {
		t.Fatalf("identical reports produced findings: %v", findings)
	}
}

func TestCompareWithinTolerance(t *testing.T) {
	old := mkReport(mkRun("er", 4, 100, 5000, true))
	neu := mkReport(mkRun("er", 4, 105, 5200, true)) // +5%, +4%
	findings, info := Compare(old, neu, 0.10)
	if len(findings) != 0 {
		t.Fatalf("within-tolerance growth gated: %v", findings)
	}
	if len(info) == 0 {
		t.Fatal("changed fields produced no informational lines")
	}
}

func TestCompareRegression(t *testing.T) {
	old := mkReport(mkRun("er", 4, 100, 5000, true))
	neu := mkReport(mkRun("er", 4, 150, 5000, true)) // msgs +50%
	findings, _ := Compare(old, neu, 0.10)
	if len(findings) == 0 {
		t.Fatal("50% msgs growth not flagged")
	}
	if !strings.Contains(findings[0], "msgs") {
		t.Fatalf("finding does not name the field: %q", findings[0])
	}
}

func TestCompareAnswerChange(t *testing.T) {
	old := mkReport(mkRun("er", 4, 100, 5000, true))
	neu := mkReport(mkRun("er", 4, 100, 5000, false))
	findings, _ := Compare(old, neu, 0.10)
	if len(findings) == 0 {
		t.Fatal("answer flip not flagged")
	}
	if !strings.Contains(findings[0], "answer") {
		t.Fatalf("finding does not mention the answer: %q", findings[0])
	}
}

func TestCompareMissingRun(t *testing.T) {
	old := mkReport(mkRun("er", 4, 100, 5000, true), mkRun("ba", 6, 200, 9000, false))
	neu := mkReport(mkRun("er", 4, 100, 5000, true))
	findings, _ := Compare(old, neu, 0.10)
	if len(findings) != 1 || !strings.Contains(findings[0], "missing") {
		t.Fatalf("missing run not flagged: %v", findings)
	}
}

func TestCompareImprovementNotGated(t *testing.T) {
	old := mkReport(mkRun("er", 4, 100, 5000, true))
	neu := mkReport(mkRun("er", 4, 50, 2500, true)) // halved — an improvement
	findings, _ := Compare(old, neu, 0.10)
	if len(findings) != 0 {
		t.Fatalf("improvement gated as regression: %v", findings)
	}
}

func mkMotif(k int, constraint string, found bool, dpops int64) harness.MotifRecord {
	return harness.MotifRecord{
		Dataset: "random", Vertices: 300, K: k, Constraint: constraint,
		MidasFound: found, MidasDPOps: dpops,
		FasciaFound: found, FasciaTableBytes: 300 << uint(k),
	}
}

func TestCompareMotifClean(t *testing.T) {
	old := mkReport()
	neu := mkReport()
	old.Motifs = []harness.MotifRecord{mkMotif(4, "", true, 9000), mkMotif(4, "0:2,1:1", true, 9000)}
	neu.Motifs = []harness.MotifRecord{mkMotif(4, "", true, 9000), mkMotif(4, "0:2,1:1", true, 9000)}
	findings, _ := Compare(old, neu, 0.10)
	if len(findings) != 0 {
		t.Fatalf("identical motif records produced findings: %v", findings)
	}
}

func TestCompareMotifAnswerChangeGated(t *testing.T) {
	old := mkReport()
	neu := mkReport()
	old.Motifs = []harness.MotifRecord{mkMotif(4, "0:2", true, 9000)}
	neu.Motifs = []harness.MotifRecord{mkMotif(4, "0:2", false, 9000)}
	findings, _ := Compare(old, neu, 0.10)
	// Both the sieve answer flip (gated) and the fascia flip
	// (informational) occur; only the former may be a finding.
	if len(findings) != 1 || !strings.Contains(findings[0], "sieve answer") {
		t.Fatalf("sieve answer flip not flagged exactly once: %v", findings)
	}
}

func TestCompareMotifDPOpsGrowthGated(t *testing.T) {
	old := mkReport()
	neu := mkReport()
	old.Motifs = []harness.MotifRecord{mkMotif(4, "", true, 9000)}
	neu.Motifs = []harness.MotifRecord{mkMotif(4, "", true, 14000)} // +55%
	findings, _ := Compare(old, neu, 0.10)
	if len(findings) != 1 || !strings.Contains(findings[0], "midas-dp-ops") {
		t.Fatalf("dp-ops growth not flagged: %v", findings)
	}
}

func TestCompareMotifFasciaAnswerInformational(t *testing.T) {
	old := mkReport()
	neu := mkReport()
	old.Motifs = []harness.MotifRecord{mkMotif(5, "", true, 9000)}
	neu.Motifs = []harness.MotifRecord{mkMotif(5, "", true, 9000)}
	neu.Motifs[0].FasciaFound = false // Monte Carlo miss must not gate
	findings, info := Compare(old, neu, 0.10)
	if len(findings) != 0 {
		t.Fatalf("fascia answer change gated: %v", findings)
	}
	var seen bool
	for _, l := range info {
		if strings.Contains(l, "fascia answer") {
			seen = true
		}
	}
	if !seen {
		t.Fatal("fascia answer change not reported informationally")
	}
}

func TestCompareMotifMissingGated(t *testing.T) {
	old := mkReport()
	neu := mkReport()
	old.Motifs = []harness.MotifRecord{mkMotif(4, "", true, 9000)}
	findings, _ := Compare(old, neu, 0.10)
	if len(findings) != 1 || !strings.Contains(findings[0], "missing") {
		t.Fatalf("missing motif record not flagged: %v", findings)
	}
}

func TestCompareCellsSkippedInformational(t *testing.T) {
	o := mkRun("er", 4, 100, 5000, true)
	n := mkRun("er", 4, 100, 5000, true)
	o.Counters["cells-skipped"] = 0
	n.Counters["cells-skipped"] = 100000 // huge growth must not gate
	findings, info := Compare(mkReport(o), mkReport(n), 0.10)
	if len(findings) != 0 {
		t.Fatalf("cells-skipped gated: %v", findings)
	}
	var seen bool
	for _, l := range info {
		if strings.Contains(l, "cells-skipped") {
			seen = true
		}
	}
	if !seen {
		t.Fatal("cells-skipped change not reported informationally")
	}
}

func mkStore(dataset string, fileBytes int64, digestOK, reused bool) harness.StoreRecord {
	return harness.StoreRecord{
		Dataset: dataset, Vertices: 300, Edges: 1700,
		TextBytes: 12000, FileBytes: fileBytes,
		ParseMillis: 0.8, ReadMillis: 0.4, MapMillis: 0.07,
		MapDigestOK: digestOK,
		Parts:       8, PartDeriveMillis: 0.02, PartLoadMillis: 0.05,
		PartReused: reused,
	}
}

func TestCompareStoreClean(t *testing.T) {
	old, neu := mkReport(), mkReport()
	old.Stores = []harness.StoreRecord{mkStore("random", 16248, true, true)}
	neu.Stores = []harness.StoreRecord{mkStore("random", 16248, true, true)}
	findings, info := Compare(old, neu, 0.10)
	if len(findings) != 0 {
		t.Fatalf("identical store records produced findings: %v", findings)
	}
	seen := false
	for _, line := range info {
		if strings.Contains(line, "cold-start") {
			seen = true
		}
	}
	if !seen {
		t.Fatal("cold-start times not reported informationally")
	}
}

func TestCompareStoreFileBloatGated(t *testing.T) {
	old, neu := mkReport(), mkReport()
	old.Stores = []harness.StoreRecord{mkStore("random", 16248, true, true)}
	neu.Stores = []harness.StoreRecord{mkStore("random", 20000, true, true)} // +23%
	findings, _ := Compare(old, neu, 0.10)
	if len(findings) != 1 || !strings.Contains(findings[0], "file-bytes") {
		t.Fatalf("23%% file growth not flagged as file-bytes: %v", findings)
	}
}

func TestCompareStoreDigestMismatchGated(t *testing.T) {
	old, neu := mkReport(), mkReport()
	old.Stores = []harness.StoreRecord{mkStore("random", 16248, true, true)}
	neu.Stores = []harness.StoreRecord{mkStore("random", 16248, false, true)}
	findings, _ := Compare(old, neu, 0.10)
	if len(findings) != 1 || !strings.Contains(findings[0], "digest") {
		t.Fatalf("digest mismatch not flagged: %v", findings)
	}
}

func TestCompareStoreArtifactReuseGated(t *testing.T) {
	old, neu := mkReport(), mkReport()
	old.Stores = []harness.StoreRecord{mkStore("random", 16248, true, true)}
	neu.Stores = []harness.StoreRecord{mkStore("random", 16248, true, false)}
	findings, _ := Compare(old, neu, 0.10)
	if len(findings) != 1 || !strings.Contains(findings[0], "partition artifact") {
		t.Fatalf("artifact reuse regression not flagged: %v", findings)
	}
}

func TestCompareStoreMissingGated(t *testing.T) {
	old, neu := mkReport(), mkReport()
	old.Stores = []harness.StoreRecord{mkStore("random", 16248, true, true)}
	findings, _ := Compare(old, neu, 0.10)
	if len(findings) != 1 || !strings.Contains(findings[0], "missing") {
		t.Fatalf("missing store record not flagged: %v", findings)
	}
}

func mkCluster(dataset string, answer, forwarded, forwardOK, handoffOK bool) harness.ClusterRecord {
	return harness.ClusterRecord{
		Dataset: dataset, Vertices: 300, Edges: 1712, K: 4, Nodes: 3, Replicas: 1,
		Answer: answer, Forwarded: forwarded, ForwardOK: forwardOK, HandoffOK: handoffOK,
		LocalMillis: 12.5, ForwardMillis: 0.8, HandoffMillis: 1.1,
	}
}

func TestCompareClusterClean(t *testing.T) {
	old, neu := mkReport(), mkReport()
	old.Clusters = []harness.ClusterRecord{mkCluster("random", true, true, true, true)}
	neu.Clusters = []harness.ClusterRecord{mkCluster("random", true, true, true, true)}
	neu.Clusters[0].ForwardMillis = 42.0 // wall time is informational
	findings, info := Compare(old, neu, 0.10)
	if len(findings) != 0 {
		t.Fatalf("identical cluster records produced findings: %v", findings)
	}
	seen := false
	for _, line := range info {
		if strings.Contains(line, "forward hop") {
			seen = true
		}
	}
	if !seen {
		t.Fatal("cluster wall times not reported informationally")
	}
}

func TestCompareClusterBooleansGated(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  harness.ClusterRecord
		want string
	}{
		{"answer", mkCluster("random", false, true, true, true), "answer changed"},
		{"forwarded", mkCluster("random", true, false, true, true), "no longer forwards"},
		{"forwardOK", mkCluster("random", true, true, false, true), "no longer identical"},
		{"handoffOK", mkCluster("random", true, true, true, false), "store handoff"},
	} {
		old, neu := mkReport(), mkReport()
		old.Clusters = []harness.ClusterRecord{mkCluster("random", true, true, true, true)}
		neu.Clusters = []harness.ClusterRecord{tc.rec}
		findings, _ := Compare(old, neu, 0.10)
		if len(findings) != 1 || !strings.Contains(findings[0], tc.want) {
			t.Fatalf("%s regression not flagged (want %q): %v", tc.name, tc.want, findings)
		}
	}
}

func TestCompareClusterMissingGated(t *testing.T) {
	old, neu := mkReport(), mkReport()
	old.Clusters = []harness.ClusterRecord{mkCluster("random", true, true, true, true)}
	findings, _ := Compare(old, neu, 0.10)
	if len(findings) != 1 || !strings.Contains(findings[0], "missing") {
		t.Fatalf("missing cluster record not flagged: %v", findings)
	}
}
