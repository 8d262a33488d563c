package main

// Smoke test plan: every workload at toy size (k ≤ 5, n ≤ 300), untraced
// and traced, asserting
//   - zero failed operations,
//   - the emitted metric and workload names are exactly BENCHMARK.json's,
//   - burst-batch really batches and dist-r2 really runs core.

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

func sortedNames(xs []struct{ Name string }) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.Name
	}
	sort.Strings(out)
	return out
}

func metricNames(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, name := range got {
		if !valid.MatchString(name) {
			t.Errorf("%s: name %q is not made of letters, digits, _ . -", what, name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d names emitted, %d in BENCHMARK.json\n got %v\nwant %v", what, len(got), len(want), got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: name %d is %q, BENCHMARK.json has %q", what, i, got[i], want[i])
		}
	}
}

func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bn benchmarkFile
	if err := json.Unmarshal(data, &bn); err != nil {
		t.Fatal(err)
	}
	var endToEnd []string
	for _, m := range bn.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	sort.Strings(endToEnd)
	declared := sortedNames(bn.Workloads)
	have := append([]string(nil), workloadNames...)
	sort.Strings(have)
	sameNames(t, "workloads", have, declared)

	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			dir := t.TempDir()
			res, err := runWorkload(name, runConfig{
				seed: 7, seconds: 0.2, trace: trace, params: toy, workdir: dir, outdir: dir,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: failed %d of %d attempted", name, trace, res.Failed, res.Attempted)
			}
			if !trace {
				sameNames(t, name+" end-to-end metrics", metricNames(res.Metrics), endToEnd)
				continue
			}
			sameNames(t, name+" per-layer metrics", metricNames(res.Metrics), sortedNames(bn.PerLayer))
			if name == "burst-batch" && res.Metrics["serve.batch_lanes_mean"].Value <= 1 {
				t.Errorf("burst-batch did not batch: %v lanes per batch", res.Metrics["serve.batch_lanes_mean"].Value)
			}
			if name == "dist-r2" && res.Metrics["comm.msgs_per_query"].Value <= 0 {
				t.Error("dist-r2 sent no messages: core did not run")
			}
			for _, f := range []string{"/trace." + name + ".json", "/layers." + name + ".json"} {
				if _, err := os.Stat(dir + f); err != nil {
					t.Errorf("%s: traced run wrote no %s: %v", name, f, err)
				}
			}
		}
	}
}
