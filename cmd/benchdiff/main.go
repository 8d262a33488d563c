// Command benchdiff compares two midas-bench JSON reports and fails on
// regressions of the deterministic (counted) quantities. It is the CI
// gate behind `make bench-compare`: wall-clock and modeled times vary
// by host and are reported but never gated; message counts, bytes and
// DP-op counters are pure functions of the run parameters, so any
// increase beyond the tolerance is a real algorithmic regression.
//
// Usage:
//
//	benchdiff [-tol 0.10] baseline.json new.json
//
// Exit status 1 on any finding:
//   - a run present in the baseline is missing from the new report,
//   - the boolean answer of a run changed,
//   - a counted field (msgs, bytes, dp-ops, halo-msgs, halo-bytes,
//     rounds, phases, levels) grew by more than -tol (default 10%),
//   - a motif record's sieve answer changed, or its sieve dp-ops or
//     the FASCIA table footprint grew by more than -tol,
//   - a cluster record's answer changed, or its routing/transparency/
//     handoff booleans (forwarded, forwardOK, handoffOK) went false.
//
// cells-skipped, the motif wall-time ratio and the kernel throughput
// records are informational: skips elide work the analytic dp-ops
// counter still models, and wall time and kernel MB/s depend on the
// host CPU.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/midas-hpc/midas/internal/harness"
)

func main() {
	tol := flag.Float64("tol", 0.10, "allowed fractional increase of counted fields")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tol 0.10] baseline.json new.json")
		os.Exit(2)
	}
	oldRep, err := harness.ReadReport(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newRep, err := harness.ReadReport(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	findings, info := Compare(oldRep, newRep, *tol)
	for _, line := range info {
		fmt.Println(line)
	}
	if len(findings) > 0 {
		for _, f := range findings {
			fmt.Println("REGRESSION:", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchdiff: OK")
}

// countedFields are the RunRecord counters gated by tolerance; each is
// deterministic in the run parameters (see harness.BenchReport).
var countedFields = []string{"dp-ops", "halo-msgs", "halo-bytes", "rounds", "phases", "levels"}

// Compare diffs two reports and returns the gating findings plus
// informational lines. Split from main for testing.
func Compare(oldRep, newRep harness.Report, tol float64) (findings, info []string) {
	index := func(rep harness.Report) map[string]harness.RunRecord {
		m := make(map[string]harness.RunRecord, len(rep.Runs))
		for _, r := range rep.Runs {
			m[fmt.Sprintf("%s/k=%d/n=%d", r.Dataset, r.K, r.N)] = r
		}
		return m
	}
	oldRuns, newRuns := index(oldRep), index(newRep)

	gate := func(key, field string, o, n int64) {
		if o == n {
			return
		}
		change := "∞"
		if o != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(float64(n)-float64(o))/float64(o))
		}
		line := fmt.Sprintf("%s %s: %d → %d (%s)", key, field, o, n, change)
		if float64(n) > float64(o)*(1+tol) {
			findings = append(findings, line)
		} else {
			info = append(info, line)
		}
	}

	for _, o := range sortedRuns(oldRuns) {
		n, ok := newRuns[o.key]
		if !ok {
			findings = append(findings, fmt.Sprintf("%s: run missing from new report", o.key))
			continue
		}
		if o.rec.Answer != n.Answer {
			findings = append(findings, fmt.Sprintf("%s: answer changed %v → %v", o.key, o.rec.Answer, n.Answer))
		}
		gate(o.key, "msgs", o.rec.Msgs, n.Msgs)
		gate(o.key, "bytes", o.rec.Bytes, n.Bytes)
		for _, f := range countedFields {
			gate(o.key, f, o.rec.Counters[f], n.Counters[f])
		}
		if os, ns := o.rec.Counters["cells-skipped"], n.Counters["cells-skipped"]; os != ns {
			info = append(info, fmt.Sprintf("%s cells-skipped: %d → %d (informational)", o.key, os, ns))
		}
	}
	findings, info = compareMotifs(oldRep, newRep, tol, findings, info)
	findings, info = compareStores(oldRep, newRep, tol, findings, info)
	findings, info = compareClusters(oldRep, newRep, findings, info)
	for _, k := range newRep.Kernels {
		info = append(info, fmt.Sprintf("kernel %s: %.0f MB/s (informational)", k.Name, k.MBPerSec))
	}
	return findings, info
}

// compareMotifs gates the motif-vs-FASCIA records: the sieve's answer
// and DP-op count and FASCIA's table footprint are deterministic in the
// parameters, so a changed answer, missing record, or counted growth
// beyond tolerance is a finding. FASCIA's answer under its capped
// coloring budget and the wall-time ratio between the engines are
// informational — the former is Monte Carlo by design, the latter is
// host-dependent.
func compareMotifs(oldRep, newRep harness.Report, tol float64, findings, info []string) ([]string, []string) {
	index := func(recs []harness.MotifRecord) map[string]harness.MotifRecord {
		m := make(map[string]harness.MotifRecord, len(recs))
		for _, r := range recs {
			con := r.Constraint
			if con == "" {
				con = "any"
			}
			m[fmt.Sprintf("motif %s/k=%d/%s", r.Dataset, r.K, con)] = r
		}
		return m
	}
	oldM, newM := index(oldRep.Motifs), index(newRep.Motifs)
	keys := make([]string, 0, len(oldM))
	for k := range oldM {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	gate := func(key, field string, o, n int64) {
		if o == n {
			return
		}
		change := "∞"
		if o != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(float64(n)-float64(o))/float64(o))
		}
		line := fmt.Sprintf("%s %s: %d → %d (%s)", key, field, o, n, change)
		if float64(n) > float64(o)*(1+tol) {
			findings = append(findings, line)
		} else {
			info = append(info, line)
		}
	}
	for _, key := range keys {
		o := oldM[key]
		n, ok := newM[key]
		if !ok {
			findings = append(findings, fmt.Sprintf("%s: motif record missing from new report", key))
			continue
		}
		if o.MidasFound != n.MidasFound {
			findings = append(findings, fmt.Sprintf("%s: sieve answer changed %v → %v", key, o.MidasFound, n.MidasFound))
		}
		gate(key, "midas-dp-ops", o.MidasDPOps, n.MidasDPOps)
		gate(key, "fascia-table-bytes", o.FasciaTableBytes, n.FasciaTableBytes)
		if o.FasciaFound != n.FasciaFound {
			info = append(info, fmt.Sprintf("%s: fascia answer changed %v → %v (informational, capped budget)", key, o.FasciaFound, n.FasciaFound))
		}
		if n.MidasWallSecs > 0 {
			info = append(info, fmt.Sprintf("%s fascia/sieve wall ratio: %.2fx (informational)", key, n.FasciaWallSecs/n.MidasWallSecs))
		}
	}
	return findings, info
}

// compareStores gates the graph-store cold-start records: the v2 file
// size is a pure function of the graph shape (growth beyond tolerance
// is format bloat), and the two correctness booleans — the mmap'd
// graph digest-matching its source, the partition artifact
// round-tripping bit-identically — must stay true. The cold-start
// milliseconds are host wall time, reported but never gated.
func compareStores(oldRep, newRep harness.Report, tol float64, findings, info []string) ([]string, []string) {
	index := func(recs []harness.StoreRecord) map[string]harness.StoreRecord {
		m := make(map[string]harness.StoreRecord, len(recs))
		for _, r := range recs {
			m["store "+r.Dataset] = r
		}
		return m
	}
	oldS, newS := index(oldRep.Stores), index(newRep.Stores)
	keys := make([]string, 0, len(oldS))
	for k := range oldS {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, key := range keys {
		o := oldS[key]
		n, ok := newS[key]
		if !ok {
			findings = append(findings, fmt.Sprintf("%s: store record missing from new report", key))
			continue
		}
		if o.FileBytes != n.FileBytes {
			line := fmt.Sprintf("%s file-bytes: %d → %d", key, o.FileBytes, n.FileBytes)
			if float64(n.FileBytes) > float64(o.FileBytes)*(1+tol) {
				findings = append(findings, line)
			} else {
				info = append(info, line)
			}
		}
		if o.MapDigestOK && !n.MapDigestOK {
			findings = append(findings, fmt.Sprintf("%s: mapped graph no longer digest-identical to its source", key))
		}
		if o.PartReused && !n.PartReused {
			findings = append(findings, fmt.Sprintf("%s: partition artifact no longer round-trips bit-identically", key))
		}
		info = append(info, fmt.Sprintf("%s cold-start ms: parse %.1f / binary %.1f / mmap %.2f (informational)",
			key, n.ParseMillis, n.ReadMillis, n.MapMillis))
		info = append(info, fmt.Sprintf("%s partition ms: derive %.1f / load %.2f (informational)",
			key, n.PartDeriveMillis, n.PartLoadMillis))
	}
	return findings, info
}

// compareClusters gates the fleet records (docs/CLUSTER.md): the query
// answer is deterministic in the graph and parameters, and the three
// behavior booleans — the non-owner front forwarding to the owner, the
// forwarded answer matching the owner-local one byte for byte, the
// owner adopting the shard via a counted store handoff — must stay
// true. The hop, handoff and local wall times are host-dependent,
// reported but never gated. No -tol here: every gated field is exact.
func compareClusters(oldRep, newRep harness.Report, findings, info []string) ([]string, []string) {
	index := func(recs []harness.ClusterRecord) map[string]harness.ClusterRecord {
		m := make(map[string]harness.ClusterRecord, len(recs))
		for _, r := range recs {
			m[fmt.Sprintf("cluster %s/k=%d", r.Dataset, r.K)] = r
		}
		return m
	}
	oldC, newC := index(oldRep.Clusters), index(newRep.Clusters)
	keys := make([]string, 0, len(oldC))
	for k := range oldC {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, key := range keys {
		o := oldC[key]
		n, ok := newC[key]
		if !ok {
			findings = append(findings, fmt.Sprintf("%s: cluster record missing from new report", key))
			continue
		}
		if o.Answer != n.Answer {
			findings = append(findings, fmt.Sprintf("%s: answer changed %v → %v", key, o.Answer, n.Answer))
		}
		if o.Forwarded && !n.Forwarded {
			findings = append(findings, fmt.Sprintf("%s: the non-owner front no longer forwards to the owner", key))
		}
		if o.ForwardOK && !n.ForwardOK {
			findings = append(findings, fmt.Sprintf("%s: forwarded answer no longer identical to the owner-local one", key))
		}
		if o.HandoffOK && !n.HandoffOK {
			findings = append(findings, fmt.Sprintf("%s: owner no longer adopts the shard via store handoff", key))
		}
		info = append(info, fmt.Sprintf("%s wall ms: local %.1f / forward hop %.2f / handoff %.2f (informational)",
			key, n.LocalMillis, n.ForwardMillis, n.HandoffMillis))
	}
	return findings, info
}

type keyedRun struct {
	key string
	rec harness.RunRecord
}

// sortedRuns returns runs in a deterministic order so output is stable.
func sortedRuns(m map[string]harness.RunRecord) []keyedRun {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := make([]keyedRun, len(keys))
	for i, k := range keys {
		out[i] = keyedRun{key: k, rec: m[k]}
	}
	return out
}
