package harness

// Machine-readable bench reports: `midas-bench -json out.json` runs a
// standard instrumented suite (every Table II dataset class × every
// requested k, distributed over N in-process ranks) and serializes the
// observables — modeled makespan, wall time, traffic, every telemetry
// counter, and latency-histogram quantiles — under a versioned schema,
// so CI and benchstat-style tooling can diff runs without scraping the
// human tables. BENCH_baseline.json at the repo root is one committed
// reference report (small parameters).

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/core"
	"github.com/midas-hpc/midas/internal/obs"
)

// BenchSchemaVersion identifies the report layout. Bump it on any
// incompatible change to Report/RunRecord/HistQuantiles.
const BenchSchemaVersion = "midas-bench/v5"

// HistQuantiles summarizes one latency-histogram family merged over
// all ranks of a run (seconds; quantiles carry the ~19% bucket
// resolution of internal/obs, min/max are exact).
type HistQuantiles struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
}

// RunRecord is one benchmarked configuration: the paper's Algorithm 2
// for k-path on a fresh local world, telemetry enabled.
type RunRecord struct {
	Dataset     string           `json:"dataset"`
	Vertices    int              `json:"vertices"`
	Edges       int              `json:"edges"`
	K           int              `json:"k"`
	N           int              `json:"n"`
	N1          int              `json:"n1"`
	N2          int              `json:"n2"`
	Answer      bool             `json:"answer"`
	ModeledSecs float64          `json:"modeledSecs"` // max virtual clock over ranks; host-calibrated α–β constants
	WallSecs    float64          `json:"wallSecs"`    // machine-dependent
	Msgs        int64            `json:"msgs"`
	Bytes       int64            `json:"bytes"`
	Counters    map[string]int64 `json:"counters"`        // every obs counter by name
	Hists       []HistQuantiles  `json:"hists,omitempty"` // non-empty families, name-sorted
}

// ReportParams echoes the suite parameters into the report.
type ReportParams struct {
	Scale int    `json:"scale"`
	N     int    `json:"n"`
	Ks    []int  `json:"ks"`
	Seed  uint64 `json:"seed"`
	Reps  int    `json:"reps"`
}

// Report is the versioned output of `midas-bench -json`.
type Report struct {
	Schema string       `json:"schema"`
	Params ReportParams `json:"params"`
	// Build stamps the binary that produced the report (module version,
	// toolchain, VCS revision), so a regression found in a stored
	// baseline ties back to the exact revision. Optional — absent in
	// reports from older binaries — so the schema version is unchanged.
	Build    *obs.BuildInfo  `json:"build,omitempty"`
	Runs     []RunRecord     `json:"runs"`
	Motifs   []MotifRecord   `json:"motifs,omitempty"`   // constrained sieve vs FASCIA baseline (see MotifBench)
	Kernels  []KernelRecord  `json:"kernels,omitempty"`  // GF kernel throughput on this host
	Stores   []StoreRecord   `json:"stores,omitempty"`   // cold-start: parse vs binary vs mmap (see StoreBench)
	Clusters []ClusterRecord `json:"clusters,omitempty"` // fleet forward hop + shard handoff (see ClusterBench)
}

// BenchReport runs the standard report suite. The counted quantities
// (Answer, Msgs, Bytes, Counters) are deterministic in the parameters
// alone; ModeledSecs and the histogram quantiles additionally depend
// on the α–β cost-model constants, which are calibrated by timing
// loops at process start — stable within a process (pinned by
// TestBenchReportDeterministicModeled), varying across hosts.
// WallSecs is honest wall time and varies freely.
func BenchReport(p Params) (Report, error) {
	p = p.withDefaults()
	build := obs.GetBuildInfo()
	rep := Report{
		Schema: BenchSchemaVersion,
		Params: ReportParams{Scale: p.Scale, N: p.N, Ks: p.Ks, Seed: p.Seed, Reps: p.Reps},
		Build:  &build,
	}
	for _, ds := range Datasets() {
		g := ds.Build(p.Scale, p.Seed)
		for _, k := range p.Ks {
			n1 := p.N
			n2 := BSMaxN2(k, p.N, n1)
			cfg := core.Config{K: k, N1: n1, N2: n2, Seed: p.Seed, Rounds: 1}
			answers := make([]bool, p.N)
			start := time.Now()
			comms, err := comm.RunLocalInspect(p.N, comm.DefaultCostModel(), func(c *comm.Comm) error {
				c.EnableObs()
				for r := 0; r < p.Reps; r++ {
					if r > 0 {
						c.Barrier()
						c.ResetTelemetry()
					}
					got, err := core.RunPath(c, g, cfg)
					if err != nil {
						return err
					}
					answers[c.Rank()] = got
				}
				return nil
			})
			if err != nil {
				return rep, fmt.Errorf("harness: report %s k=%d: %w", ds.Name, k, err)
			}
			wall := time.Since(start).Seconds()
			snaps := comm.Snapshots(comms)
			tot := obs.Totals(snaps...)
			stats := comm.TotalStats(comms)
			rec := RunRecord{
				Dataset: ds.Name, Vertices: g.NumVertices(), Edges: g.NumEdges(),
				K: k, N: p.N, N1: n1, N2: n2,
				Answer:      answers[0],
				ModeledSecs: comm.MaxClock(comms),
				WallSecs:    wall,
				Msgs:        stats.MsgsSent,
				Bytes:       stats.BytesSent,
				Counters:    make(map[string]int64, int(obs.NumCounters)),
			}
			for c := obs.Counter(0); c < obs.NumCounters; c++ {
				rec.Counters[c.String()] = tot.Counter(c)
			}
			for _, h := range tot.Hists { // already name-sorted by Totals
				if h.Count == 0 {
					continue
				}
				rec.Hists = append(rec.Hists, HistQuantiles{
					Name: h.Name, Count: h.Count,
					P50: h.Quantile(0.5), P90: h.Quantile(0.9), P99: h.Quantile(0.99),
					Max: h.Max, Mean: h.Mean(),
				})
			}
			rep.Runs = append(rep.Runs, rec)
		}
	}
	motifs, err := MotifBench(p)
	if err != nil {
		return rep, err
	}
	rep.Motifs = motifs
	rep.Kernels = KernelBench()
	stores, err := StoreBench(p)
	if err != nil {
		return rep, err
	}
	rep.Stores = stores
	clusters, err := ClusterBench(p)
	if err != nil {
		return rep, err
	}
	rep.Clusters = clusters
	return rep, nil
}

// WriteReport serializes a report to path as indented JSON.
func WriteReport(path string, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads a report and rejects unknown schema versions.
func ReadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("harness: %s: %w", path, err)
	}
	if rep.Schema != BenchSchemaVersion {
		return rep, fmt.Errorf("harness: %s: schema %q, this binary reads %q", path, rep.Schema, BenchSchemaVersion)
	}
	return rep, nil
}
