// Package midas is a Go implementation of MIDAS — multilinear detection
// at scale (Ekanayake, Cadena, Wickramasinghe, Vullikanti; IPDPS 2018):
// randomized algebraic detection of k-vertex paths, trees, and
// anomalous connected subgraphs (graph scan statistics) in large
// networks, sequentially or distributed over an MPI-style communicator.
//
// The underlying technique (Koutis; Williams) represents candidate
// subgraphs as monomials of a recursively-defined polynomial and tests
// for a degree-k multilinear term by evaluating the polynomial 2^k
// times over GF(2^16); time grows as O(2^k·m) and memory only as
// O(k·n), which is what lets MIDAS reach subgraph sizes (k = 18) that
// color-coding methods cannot.
//
// # Quick start
//
//	g := midas.NewRandomGraph(100_000, midas.Seed(1))
//	found, err := midas.FindPath(g, 12, midas.Options{Seed: 1})
//
// # Distributed use
//
// A Cluster is a set of SPMD ranks. RunLocal simulates one in-process
// (rank-per-goroutine); ConnectTCP joins separate OS processes into one
// world. Inside the SPMD function, the Distributed* calls run the
// paper's Algorithm 2 with graph partitioning (N1) and iteration
// batching (N2):
//
//	midas.RunLocal(8, func(c *midas.Cluster) error {
//	    found, err := midas.DistributedFindPath(c, g, 12, midas.ClusterConfig{N1: 4, N2: 64})
//	    ...
//	})
//
// Everything is deterministic in Options.Seed; answers have one-sided
// error at most Options.Epsilon (default 0.05): "yes" answers are
// always correct.
//
// # Observability
//
// Runs can be instrumented with per-rank counters and span timelines
// (docs/OBSERVABILITY.md is the operations guide). Sequential: attach a
// recorder via Options.Obs and export its Snapshot. Distributed: call
// Cluster.EnableObs before the Distributed* call, then gather every
// rank's telemetry with Cluster.GatherObsSnapshots:
//
//	rec := midas.NewObsRecorder()
//	found, _ := midas.FindPath(g, 12, midas.Options{Obs: rec})
//	midas.WriteObsSummary(os.Stdout, rec.Snapshot())
//
// WriteObsTrace renders snapshots as Chrome trace_event JSON for
// chrome://tracing or Perfetto (send/receive pairs are stitched with
// flow arrows across ranks). With no recorder attached the
// instrumentation is free: every hook is a nil-receiver no-op.
//
// A run can also be watched live: set Options.ObsAddr (or start a
// ServeObs server yourself) to expose Prometheus /metrics, /healthz
// liveness, and /debug/pprof/ on an HTTP port while the detection is
// in flight.
package midas

import (
	"context"
	"io"
	"os"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/core"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
	"github.com/midas-hpc/midas/internal/partition"
	"github.com/midas-hpc/midas/internal/scanstat"
)

// Graph is an immutable undirected graph in CSR form. Build one with
// NewBuilder/FromEdges, a generator, or LoadEdgeList.
type Graph = graph.Graph

// Builder accumulates edges for a Graph.
type Builder = graph.Builder

// Template is the k-vertex tree searched for by FindTree.
type Template = graph.Template

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph on n vertices from an edge list.
func FromEdges(n int, edges [][2]int32) *Graph { return graph.FromEdges(n, edges) }

// LoadGraph reads a graph file in either supported format (text edge
// list or the binary CSR format), sniffing the header.
func LoadGraph(path string) (*Graph, error) { return graph.Load(path) }

// LoadEdgeList reads a whitespace-separated "u v" edge list file.
func LoadEdgeList(path string) (*Graph, error) { return graph.LoadEdgeList(path) }

// SaveEdgeList writes a graph as an edge-list file.
func SaveEdgeList(path string, g *Graph) error { return graph.SaveEdgeList(path, g) }

// SaveBinary writes a graph in the fast binary CSR format (including
// any attached weights and baselines).
func SaveBinary(path string, g *Graph) error { return graph.SaveBinary(path, g) }

// LoadWeights reads a "v w [b]" per-vertex weights file and attaches it
// to g (weight defaults to 0 and baseline to 1 for absent vertices).
func LoadWeights(path string, g *Graph) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return graph.ReadWeights(f, g)
}

// LoadLabels reads a per-vertex "v c" color file and attaches it to g
// (absent vertices default to color 0). Colors feed FindMotif's
// multiset constraints.
func LoadLabels(path string, g *Graph) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return graph.ReadLabels(f, g)
}

// LoadTemplate reads a tree template from an edge-list file; the
// template has max-id+1 vertices and the edges must form a tree.
func LoadTemplate(path string) (*Template, error) {
	g, err := graph.LoadEdgeList(path)
	if err != nil {
		return nil, err
	}
	return graph.NewTemplate(g.NumVertices(), g.Edges())
}

// NewRandomGraph returns an Erdős–Rényi graph with m = n·ln n edges
// (the paper's random-* dataset shape).
func NewRandomGraph(n int, seed uint64) *Graph { return graph.RandomNLogN(n, seed) }

// NewPowerLawGraph returns a Barabási–Albert preferential-attachment
// graph with the given attachment degree.
func NewPowerLawGraph(n, attach int, seed uint64) *Graph {
	return graph.BarabasiAlbert(n, attach, seed)
}

// NewRoadGraph returns a connected spatial road-style network on a
// rows×cols lattice.
func NewRoadGraph(rows, cols int, seed uint64) *Graph { return graph.RoadNetwork(rows, cols, seed) }

// NewTemplate validates a tree template on k vertices.
func NewTemplate(k int, edges [][2]int32) (*Template, error) { return graph.NewTemplate(k, edges) }

// PathTemplate returns the k-vertex path template.
func PathTemplate(k int) *Template { return graph.PathTemplate(k) }

// StarTemplate returns the k-vertex star template.
func StarTemplate(k int) *Template { return graph.StarTemplate(k) }

// Options configures sequential detection. The zero value works: seed
// 0, ε = 0.05, GF(2^16) arithmetic, planned batch width.
type Options struct {
	// Seed makes the run reproducible; every random choice derives
	// from it.
	Seed uint64
	// Epsilon bounds the one-sided failure probability (default 0.05).
	Epsilon float64
	// Rounds overrides the amplification round count (0 = derive from
	// Epsilon).
	Rounds int
	// N2 is the iteration batch (phase) width (paper Section IV-B).
	// 0 — the default — plans it from the query's shape: the widest
	// power of two whose DP state fits a fixed byte budget, at least
	// 128, capped at 2^k (mld.PlanN2). Answers never depend on it.
	N2 int
	// Workers splits the DP vertex loops across goroutines for
	// shared-memory parallelism (0 or 1 = serial). Orthogonal to the
	// distributed mode: one process per rank, workers within a rank.
	Workers int
	// Obs, when non-nil, records round/phase/level spans and DP op
	// counts for the run (see the package Observability section and
	// docs/OBSERVABILITY.md). Nil disables instrumentation at no cost.
	Obs *ObsRecorder
	// ObsAddr, when non-empty, serves the live telemetry endpoint
	// (/metrics, /healthz, /debug/pprof/) on this host:port for the
	// duration of the call (":0" picks a free port). A recorder is
	// attached automatically if Obs is nil. For an endpoint that
	// outlives a single call, use ServeObs directly.
	ObsAddr string
	// Ctx, when non-nil, makes the detection cancellable: the evaluators
	// check it between iteration batches and return its error instead of
	// finishing the 2^k sweep. Nil (the default) runs to completion.
	Ctx context.Context
}

func (o Options) mld() mld.Options {
	return mld.Options{Seed: o.Seed, Epsilon: o.Epsilon, Rounds: o.Rounds, N2: o.N2, Workers: o.Workers, Obs: o.Obs, Ctx: o.Ctx}
}

// obsSetup applies Options.ObsAddr: when set, it ensures a recorder is
// attached and serves the live endpoint over it until the returned stop
// function runs (call it when the detection returns).
func (o Options) obsSetup() (Options, func(), error) {
	if o.ObsAddr == "" {
		return o, func() {}, nil
	}
	if o.Obs == nil {
		o.Obs = NewObsRecorder()
	}
	srv, err := ServeObs(o.ObsAddr, o.Obs)
	if err != nil {
		return o, nil, err
	}
	return o, func() { srv.Close() }, nil
}

// FindPath reports whether g contains a simple path on k vertices.
func FindPath(g *Graph, k int, opt Options) (bool, error) {
	opt, stop, err := opt.obsSetup()
	if err != nil {
		return false, err
	}
	defer stop()
	return mld.DetectPath(g, k, opt.mld())
}

// FindPathVertices returns an actual k-path (in order), or an error if
// none is detected.
func FindPathVertices(g *Graph, k int, opt Options) ([]int32, error) {
	opt, stop, err := opt.obsSetup()
	if err != nil {
		return nil, err
	}
	defer stop()
	return mld.ExtractPath(g, k, opt.mld())
}

// MaxWeightPath returns the maximum total vertex weight over all simple
// paths on exactly k vertices (the paper's Problem 3(2) for paths), and
// whether any k-path exists. Vertex weights must be non-negative; round
// large float weights with RoundWeights first.
func MaxWeightPath(g *Graph, k int, opt Options) (weight int64, found bool, err error) {
	opt, stop, err := opt.obsSetup()
	if err != nil {
		return 0, false, err
	}
	defer stop()
	return mld.MaxWeightPath(g, k, opt.mld())
}

// MaxWeightTree is MaxWeightPath for tree templates: the maximum total
// vertex weight over all non-induced embeddings of tpl.
func MaxWeightTree(g *Graph, tpl *Template, opt Options) (weight int64, found bool, err error) {
	opt, stop, err := opt.obsSetup()
	if err != nil {
		return 0, false, err
	}
	defer stop()
	return mld.MaxWeightTree(g, tpl, opt.mld())
}

// FindTree reports whether the tree template has a non-induced
// embedding in g.
func FindTree(g *Graph, tpl *Template, opt Options) (bool, error) {
	opt, stop, err := opt.obsSetup()
	if err != nil {
		return false, err
	}
	defer stop()
	return mld.DetectTree(g, tpl, opt.mld())
}

// FindTreeVertices returns an embedding (indexed by template vertex),
// or an error if none is detected.
func FindTreeVertices(g *Graph, tpl *Template, opt Options) ([]int32, error) {
	opt, stop, err := opt.obsSetup()
	if err != nil {
		return nil, err
	}
	defer stop()
	return mld.ExtractTree(g, tpl, opt.mld())
}

// MotifSpec is the generalized graph-motif query answered by FindMotif:
// a connected subgraph on exactly K vertices whose colors (set them
// with Graph.SetLabels or LoadLabels) contain each listed color at
// least Counts[c] times — exactly, when the counts sum to K.
type MotifSpec = mld.MotifSpec

// FindMotif reports whether g contains a connected spec.K-vertex
// subgraph satisfying spec's color-multiset constraint, via the
// constrained multilinear sieve (same 2^k·m time and k·n memory scaling
// as FindPath — no 2^k-per-vertex color-coding tables).
func FindMotif(g *Graph, spec *MotifSpec, opt Options) (bool, error) {
	opt, stop, err := opt.obsSetup()
	if err != nil {
		return false, err
	}
	defer stop()
	return mld.DetectMotif(g, spec, opt.mld())
}

// Statistic scores candidate anomalous subgraphs; see KulldorffPoisson,
// ElevatedMean and BerkJones.
type Statistic = scanstat.Statistic

// KulldorffPoisson is the expectation-based Poisson scan statistic.
type KulldorffPoisson = scanstat.KulldorffPoisson

// ElevatedMean is the expectation-based Gaussian scan statistic.
type ElevatedMean = scanstat.ElevatedMean

// BerkJones is the non-parametric Berk–Jones scan statistic over
// p-values.
type BerkJones = scanstat.BerkJones

// AnomalyResult reports the best-scoring connected subgraph cell.
type AnomalyResult = scanstat.Result

// IndicatorWeights converts p-values to the 0/1 weights Berk–Jones
// consumes: w(v) = 1 iff p(v) < alpha.
func IndicatorWeights(pvalues []float64, alpha float64) []int64 {
	return scanstat.IndicatorWeights(pvalues, alpha)
}

// RoundWeights maps float event counts onto an integer grid (the
// knapsack-style rounding of the paper's reference [19]).
func RoundWeights(w []float64, gridMax int) ([]int64, error) {
	return scanstat.RoundWeights(w, gridMax)
}

// DetectAnomaly finds the connected subgraph of at most k vertices
// maximizing the statistic over g's vertex weights (set them with
// Graph.SetWeights).
func DetectAnomaly(g *Graph, k int, stat Statistic, opt Options) (AnomalyResult, error) {
	opt, stop, err := opt.obsSetup()
	if err != nil {
		return AnomalyResult{}, err
	}
	defer stop()
	return scanstat.Detect(g, k, stat, scanstat.Options{MLD: opt.mld()})
}

// ExtractAnomaly recovers an actual vertex set realizing a feasible
// (size, weight) cell reported by DetectAnomaly.
func ExtractAnomaly(g *Graph, size int, weight int64, opt Options) ([]int32, error) {
	opt, stop, err := opt.obsSetup()
	if err != nil {
		return nil, err
	}
	defer stop()
	return scanstat.ExtractCell(g, size, weight, scanstat.Options{MLD: opt.mld()})
}

// ObsRecorder collects one rank's (or a sequential run's) telemetry:
// typed counters plus nested round/phase/level spans. Attach one via
// Options.Obs (sequential) or Cluster.EnableObs (distributed; uses the
// rank's virtual clock as the time base). A nil *ObsRecorder is the
// disabled recorder — every method no-ops.
type ObsRecorder = obs.Recorder

// ObsSnapshot is the frozen, serializable form of one rank's telemetry;
// feed any number of them to WriteObsSummary or WriteObsTrace.
type ObsSnapshot = obs.Snapshot

// NewObsRecorder returns a recorder for sequential runs, using wall
// time anchored at the call as its time base. Distributed ranks should
// use Cluster.EnableObs instead, which anchors the recorder to the
// rank's virtual clock.
func NewObsRecorder() *ObsRecorder { return obs.NewRecorder(0, nil) }

// WriteObsSummary renders snapshots as the plain-text operator summary:
// per-rank counters, time by span category, and halo volume per DP
// level. docs/OBSERVABILITY.md defines every column.
func WriteObsSummary(w io.Writer, snaps ...ObsSnapshot) error { return obs.WriteSummary(w, snaps...) }

// WriteObsTrace renders snapshots as Chrome trace_event JSON — one
// trace thread per rank, one complete event per span — loadable at
// chrome://tracing or https://ui.perfetto.dev.
func WriteObsTrace(w io.Writer, snaps ...ObsSnapshot) error { return obs.WriteTrace(w, snaps...) }

// ObsHistogram is the mergeable, serializable form of one latency
// histogram (Snapshot.Hists); Merge folds per-rank distributions.
type ObsHistogram = obs.HistSnapshot

// ObsServer is the live telemetry HTTP server: Prometheus text-format
// /metrics, rank liveness and phase progress on /healthz, and the
// standard /debug/pprof/ profiler. Start one with ServeObs (or let
// Options.ObsAddr / `midas -obs-addr` do it); stop with Close.
type ObsServer = obs.Server

// ServeObs serves the live telemetry endpoint on addr (":0" picks a
// free port; read it back with Addr) over the given recorders — one per
// in-process rank, or just one for a sequential run. Scrapes see the
// run in flight: recorders are snapshotted per request.
func ServeObs(addr string, recs ...*ObsRecorder) (*ObsServer, error) {
	return obs.Serve(addr, obs.SnapshotSource(recs...))
}

// ServeObsSource is ServeObs over a dynamic snapshot callback, for
// servers that must outlive any fixed recorder set (e.g. chaos runs
// that rebuild their world per attempt). source is invoked per request
// and must be safe for concurrent use.
func ServeObsSource(addr string, source func() []ObsSnapshot) (*ObsServer, error) {
	return obs.Serve(addr, source)
}

// Cluster is a rank's handle on an SPMD world (MPI-communicator-like).
// Observability hooks live directly on it: EnableObs attaches a
// virtual-clock recorder, ObsSnapshot freezes the rank's telemetry,
// GatherObsSnapshots collects every rank's snapshot at a root rank, and
// ResetTelemetry clears clock+stats+recorder between repeated
// experiments on a reused world.
type Cluster = comm.Comm

// ClusterConfig tunes the distributed algorithm: N1 graph parts per
// phase group, N2 iterations per batch, the partitioning scheme, and
// the usual Options fields.
type ClusterConfig = core.Config

// ScanClusterConfig extends ClusterConfig with the scan weight cap.
type ScanClusterConfig = core.ScanConfig

// Partition scheme names for ClusterConfig.Scheme.
const (
	SchemeBlock      = partition.SchemeBlock
	SchemeRandom     = partition.SchemeRandom
	SchemeBFSGrow    = partition.SchemeBFSGrow
	SchemeMultilevel = partition.SchemeMultilevel
)

// RunLocal executes fn as an SPMD program over n in-process ranks
// (goroutines). Rank failures are aggregated into a *WorldError of
// structured *RankErrors (nil when every rank succeeds).
func RunLocal(n int, fn func(c *Cluster) error) error {
	return comm.RunLocal(n, comm.DefaultCostModel(), fn)
}

// ConnectTCP joins this process into a TCP world of the given size;
// rank 0 listens on rootAddr, others use it as the rendezvous point.
func ConnectTCP(rank, size int, rootAddr string) (*Cluster, error) {
	return comm.ConnectTCP(rank, size, rootAddr, comm.DefaultCostModel())
}

// TCPOptions tunes ConnectTCPOpts: connect/IO deadlines, the send
// retry/backoff policy, and an optional fault-injection schedule.
type TCPOptions = comm.TCPOptions

// ConnectTCPOpts is ConnectTCP with explicit resilience options.
func ConnectTCPOpts(rank, size int, rootAddr string, opts TCPOptions) (*Cluster, error) {
	return comm.ConnectTCPOpts(rank, size, rootAddr, comm.DefaultCostModel(), opts)
}

// FaultSpec is a reproducible fault-injection schedule for chaos
// testing: message drops, delays, duplicates, reordering, severed rank
// pairs, and rank kills, all derived from one seed. docs/FAULTS.md
// documents the model and the textual grammar.
type FaultSpec = comm.FaultSpec

// ParseFaultSpec parses the -fault-spec grammar, e.g.
// "drop=0.05,delay=2ms,kill=3@10,seed=42". An empty string is the
// inactive (inject-nothing) spec.
func ParseFaultSpec(text string) (FaultSpec, error) { return comm.ParseFaultSpec(text) }

// RankError is one rank's structured failure: which rank, in which
// algorithm phase, and why.
type RankError = comm.RankError

// WorldError aggregates every failing rank of an SPMD run;
// errors.As/Is reach the individual RankErrors and their causes.
type WorldError = comm.WorldError

// FaultError is the failure a transport escalates when an operation
// cannot complete (killed rank, severed link, retries exhausted).
type FaultError = comm.FaultError

// RetryReport says what a resilient run took: total attempts and the
// error of each failed one.
type RetryReport = core.RetryReport

// RunLocalChaos is RunLocal over a fault-injecting world: every rank's
// transport applies the spec's schedule. Masked faults (drops retried
// away, delays, duplicates, reordering) only perturb timing; unmasked
// ones (kills, severed links) surface as FaultErrors inside the
// returned WorldError.
func RunLocalChaos(n int, spec FaultSpec, fn func(c *Cluster) error) error {
	return comm.RunLocalFaulty(n, comm.DefaultCostModel(), spec, fn)
}

// ChaosFindPath runs distributed k-path detection on an in-process
// chaos world of n ranks, retrying the whole detection (up to attempts
// times) when injected faults kill a run — safe because every round is
// a pure function of (graph, config, seed). setup, when non-nil, runs
// on each rank before the detection (e.g. Cluster.EnableObs). The
// returned clusters are the last attempt's, for telemetry inspection.
func ChaosFindPath(n int, spec FaultSpec, g *Graph, k int, cfg ClusterConfig, attempts int, setup func(c *Cluster)) (bool, []*Cluster, RetryReport, error) {
	cfg.K = k
	return core.RunPathLocalResilient(n, comm.DefaultCostModel(), spec, g, cfg, attempts, setup)
}

// ClusterSnapshots freezes the telemetry of several clusters without
// communicating — the in-process counterpart of GatherObsSnapshots.
func ClusterSnapshots(cs []*Cluster) []ObsSnapshot { return comm.Snapshots(cs) }

// DistributedFindPath runs the paper's Algorithm 2 for k-path; all
// ranks of c must call it collectively with identical arguments.
func DistributedFindPath(c *Cluster, g *Graph, k int, cfg ClusterConfig) (bool, error) {
	cfg.K = k
	return core.RunPath(c, g, cfg)
}

// DistributedFindTree runs Algorithm 2 with the tree evaluator.
func DistributedFindTree(c *Cluster, g *Graph, tpl *Template, cfg ClusterConfig) (bool, error) {
	return core.RunTree(c, g, tpl, cfg)
}

// DistributedFindMotif runs Algorithm 2 with the constrained-motif
// evaluator; answers match FindMotif with the same seed exactly.
func DistributedFindMotif(c *Cluster, g *Graph, spec *MotifSpec, cfg ClusterConfig) (bool, error) {
	return core.RunMotif(c, g, spec, cfg)
}

// DistributedFindPathVertices extracts an actual k-path using the whole
// cluster as the detection oracle; all ranks call collectively and
// return the same path.
func DistributedFindPathVertices(c *Cluster, g *Graph, k int, cfg ClusterConfig) ([]int32, error) {
	return core.ExtractPath(c, g, k, cfg)
}

// DistributedFindTreeVertices extracts an embedding of the template
// using the cluster as the oracle.
func DistributedFindTreeVertices(c *Cluster, g *Graph, tpl *Template, cfg ClusterConfig) ([]int32, error) {
	return core.ExtractTree(c, g, tpl, cfg)
}

// DistributedMaxWeightPath runs Algorithm 2 with the weight-indexed
// path evaluator (the distributed MaxWeightPath).
func DistributedMaxWeightPath(c *Cluster, g *Graph, k int, cfg ClusterConfig) (weight int64, found bool, err error) {
	cfg.K = k
	return core.RunMaxWeightPath(c, g, cfg)
}

// DistributedScanTable runs Algorithm 2 with the scan-statistics
// evaluator and returns the feasibility table feas[size][weight].
func DistributedScanTable(c *Cluster, g *Graph, cfg ScanClusterConfig) ([][]bool, error) {
	return core.RunScan(c, g, cfg)
}

// MaximizeScanTable picks the best statistic value over a feasibility
// table (pair with DistributedScanTable).
func MaximizeScanTable(feas [][]bool, stat Statistic) AnomalyResult {
	return scanstat.MaximizeTable(feas, stat)
}
