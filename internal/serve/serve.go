// Package serve is midas-serve: a long-running multi-tenant query
// service over the MIDAS detectors. Graphs are loaded once into a
// registry and reused by every query that names them — together with
// the per-graph partition cache, the shared DP slab arena, and the
// process-global GF coefficient tables, a resident process answers
// repeated queries without re-paying any setup cost.
//
// The request path is: bounded admission queue (full → 429, draining →
// 503) → worker pool → singleflight dedup (identical in-flight queries
// share one DP execution) → LRU result cache (a repeat of any finished
// query is answered without running the DP). Every query runs under a
// context assembled from the server's lifetime, the request deadline,
// and the singleflight membership, threaded down into the evaluators'
// round/batch loops — an abandoned or timed-out query stops burning
// its 2^k iterations at the next batch boundary.
//
// With Config.BatchWindow > 0, a worker additionally holds each
// ranks ≤ 1 query for the window and sweeps the queue for compatible
// ones (same graph digest and kind), running them as the lanes of one
// batch: solo sweeps side by side on the leader's workers, each
// answered as it finishes. Distributed queries are never batched; each
// runs solo, through the cluster's runner when one is installed.
// Singleflight and the cache compose in front of batching — only flight
// leaders become lanes — and cancellation stays per-query: a dead lane
// stops while its batch-mates finish. Answers are byte-identical to
// solo execution.
//
// docs/SERVING.md is the operator guide: API reference, admission,
// caching and deadline semantics, and capacity tuning. docs/BATCHING.md
// covers the batching design and its metrics.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
	"github.com/midas-hpc/midas/internal/store"
)

// Config tunes the service. The zero value is usable; every field has
// a serving-appropriate default.
type Config struct {
	// QueueDepth bounds the admission queue; a query arriving with the
	// queue full is rejected with 429. Default 64.
	QueueDepth int
	// Workers is the number of concurrent query executions. Default 2.
	Workers int
	// CacheMaxEntries / CacheMaxBytes bound the result cache.
	// Defaults 1024 entries, 64 MiB.
	CacheMaxEntries int
	CacheMaxBytes   int64
	// ArenaMaxBytes / ArenaMaxClasses bound the shared DP slab arena
	// (see mld.NewArenaCap). Defaults are the mld package defaults.
	ArenaMaxBytes   int64
	ArenaMaxClasses int
	// DefaultTimeout applies to queries that set no timeoutMillis.
	// Zero means no default deadline.
	DefaultTimeout time.Duration
	// MaxJobs bounds the finished-job table. Default 4096.
	MaxJobs int
	// BatchWindow, when positive, enables admission batching: a worker
	// picking up a ranks ≤ 1 query waits up to this long, harvesting
	// compatible queued queries (same graph/kind/ranks) into one batched
	// execution. Distributed queries always run solo. Zero — the
	// default — disables batching entirely; every query runs solo. A few milliseconds is a
	// sensible window (docs/BATCHING.md discusses the tradeoff).
	BatchWindow time.Duration
	// BatchMaxLanes caps the lanes per batched execution. Default 16,
	// hard cap mld.MaxBatchLanes.
	BatchMaxLanes int
	// Logger receives the service's structured logs: the per-request
	// HTTP access log, the per-query access log (request ID, identity,
	// disposition, stage latencies, status), lifecycle events, and the
	// slow-query log. Nil — the default — discards everything at zero
	// formatting cost. cmd/midas-serve installs a JSON handler on
	// stderr, leveled by -log-level.
	Logger *slog.Logger
	// SlowQuery, when positive, logs any query whose total latency
	// (received → terminal) meets the threshold at Warn level and
	// counts it in the serve-slow-queries counter. Zero disables.
	SlowQuery time.Duration
	// FlightRecorderSize bounds the ring of completed query traces the
	// flight recorder retains for GET /v1/debug/requests (in-flight
	// traces are always all held). Default 256.
	FlightRecorderSize int
	// AutoTune, when set, fills a distributed query's unset N1 from
	// core.AutoPlanN1 — graph size and world shape pick the part count
	// instead of "one part per rank". Answers are plan-independent;
	// only performance moves. Cluster nodes enable this so every
	// replica derives the same plan for the same query
	// (docs/CLUSTER.md). The phase width N2 is not an AutoTune matter:
	// mld.PlanN2 plans an unset N2 for every query, tuned or not.
	AutoTune bool
	// Store, when non-nil, backs the registry with a persistent
	// content-addressed graph repository (internal/store): graphs
	// POSTed to /v1/graphs are written through, every name in the
	// store's manifest is re-registered at startup, and a query naming
	// a stored graph maps its file zero-copy on first use — a restart
	// answers queries against previously-loaded graphs with no
	// re-parse. The server adopts the store's telemetry (store-hit/
	// miss/evict counters land in Recorder()) and releases its pins at
	// Shutdown; closing the store itself stays with whoever opened it.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.CacheMaxEntries <= 0 {
		c.CacheMaxEntries = 1024
	}
	if c.CacheMaxBytes <= 0 {
		c.CacheMaxBytes = 64 << 20
	}
	if c.ArenaMaxBytes <= 0 {
		c.ArenaMaxBytes = mld.DefaultArenaMaxBytes
	}
	if c.ArenaMaxClasses <= 0 {
		c.ArenaMaxClasses = mld.DefaultArenaMaxClasses
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.BatchMaxLanes <= 0 {
		c.BatchMaxLanes = 16
	}
	if c.BatchMaxLanes > mld.MaxBatchLanes {
		c.BatchMaxLanes = mld.MaxBatchLanes
	}
	if c.FlightRecorderSize <= 0 {
		c.FlightRecorderSize = 256
	}
	return c
}

// Server is the query service. Construct with New, expose via Handler
// or Start, stop with Shutdown.
type Server struct {
	cfg       Config
	rec       *obs.Recorder // serve-plane counters and histograms
	arena     *mld.Arena    // DP slabs shared by every query execution
	registry  *registry
	cache     *resultCache
	flights   *flightGroup
	jobs      *jobTable
	queue     *admitQueue
	logger    *slog.Logger
	flightRec *flightRecorder

	started     time.Time
	idPrefix    string        // request-ID prefix, unique per process generation
	reqSeq      atomic.Uint64 // generated request-ID sequence
	workerState []atomic.Value

	baseCtx    context.Context // parent of every flight; cancelled at forced stop
	baseCancel context.CancelFunc
	draining   atomic.Bool
	inflight   atomic.Int64   // leaders currently executing a DP
	wg         sync.WaitGroup // workers
	followers  sync.WaitGroup // per-job resolution goroutines

	ln   net.Listener
	hsrv *http.Server

	// Cluster integration hooks (internal/cluster). All are set before
	// Start — the queue's mutex orders them before any worker read.
	distRunner  DistRunner          // intercepts ranks>1 queries
	clusterInfo func() any          // /v1/debug/requests cluster block
	extraGauges func() []obs.Metric // extra /metrics gauges
	queryRouter func(http.ResponseWriter, *http.Request) bool
	graphAdded  func(name string, digest uint64, vertices, edges int)
	extraRoutes func(*http.ServeMux)
}

// DistRunner is the cluster hook for distributed queries: given a
// ranks>1 query it may run the DP across a fleet of replicas instead
// of the in-process world. handled=false means the hook declined (no
// peers, unsupported shape) and the server falls back to the local
// world — the degrade path when the fleet cannot assemble. Counters
// the runner adds to rec surface as the result's Rounds/Phases.
type DistRunner func(ctx context.Context, req *QueryRequest, rec *obs.Recorder, res *Result, tr *QueryTrace) (handled bool, err error)

// SetDistributedRunner installs the cluster's distributed-query hook.
// Call before Start.
func (s *Server) SetDistributedRunner(fn DistRunner) { s.distRunner = fn }

// SetClusterInfo installs a provider for the cluster block of
// GET /v1/debug/requests. Call before Start.
func (s *Server) SetClusterInfo(fn func() any) { s.clusterInfo = fn }

// SetExtraGauges appends provider-supplied gauges (cluster membership,
// placement state) to /metrics. Call before Start.
func (s *Server) SetExtraGauges(fn func() []obs.Metric) { s.extraGauges = fn }

// SetQueryRouter installs the cluster's routing hook in front of
// POST /v1/query, inside the middleware (the hook sees the assigned
// request ID). Returning true means the hook fully handled the request
// (forwarded it to a shard owner); false falls through to local
// serving. The hook may read the body as long as it restores r.Body
// on the false path. Call before Start.
func (s *Server) SetQueryRouter(fn func(http.ResponseWriter, *http.Request) bool) {
	s.queryRouter = fn
}

// SetGraphAdded installs a callback invoked synchronously after every
// successful POST /v1/graphs registration, before the response is
// written — the cluster replicates and announces the graph here, so a
// 200 means the fleet knows it. Call before Start.
func (s *Server) SetGraphAdded(fn func(name string, digest uint64, vertices, edges int)) {
	s.graphAdded = fn
}

// SetExtraRoutes registers additional routes (the /v1/cluster/* plane)
// on the API mux, inside the request-ID/recovery/access-log
// middleware. Call before Start/Handler.
func (s *Server) SetExtraRoutes(fn func(*http.ServeMux)) { s.extraRoutes = fn }

// Store returns the configured graph repository (nil without one).
func (s *Server) Store() *store.Store { return s.cfg.Store }

// Logger returns the server's structured logger (never nil).
func (s *Server) Logger() *slog.Logger { return s.logger }

// LookupGraph resolves a registered graph's identity without forcing
// a store map — the shape comes from the registry entry.
func (s *Server) LookupGraph(name string) (digest uint64, vertices, edges int, ok bool) {
	e, found := s.registry.peek(name)
	if !found {
		return 0, 0, 0, false
	}
	return e.Digest, e.Vertices, e.Edges, true
}

// AdoptStored registers a graph that already sits in the store (landed
// by shard handoff) under name: a lazy entry — nothing maps until the
// first query — plus the manifest binding so a restart finds it again.
func (s *Server) AdoptStored(name string, digest uint64, vertices, edges int) error {
	st := s.cfg.Store
	if st == nil {
		return errors.New("serve: no store configured")
	}
	if !st.Has(digest) {
		return fmt.Errorf("serve: adopt %q: digest %016x not in store", name, digest)
	}
	if err := st.SetName(name, digest, vertices, edges); err != nil {
		return err
	}
	s.registry.addStored(name, store.NameInfo{Digest: digest, Vertices: vertices, Edges: edges}, st)
	return nil
}

// New returns an idle server. Call Start (own listener) or mount
// Handler on an existing mux, then Shutdown when done.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	now := time.Now()
	s := &Server{
		cfg:         cfg,
		rec:         obs.NewRecorder(0, nil),
		arena:       mld.NewArenaCap(cfg.ArenaMaxBytes, cfg.ArenaMaxClasses),
		registry:    newRegistry(),
		cache:       newResultCache(cfg.CacheMaxEntries, cfg.CacheMaxBytes),
		flights:     newFlightGroup(),
		jobs:        newJobTable(cfg.MaxJobs),
		queue:       newAdmitQueue(cfg.QueueDepth),
		logger:      cfg.Logger,
		flightRec:   newFlightRecorder(cfg.FlightRecorderSize),
		started:     now,
		idPrefix:    fmt.Sprintf("r%08x-", uint32(now.UnixNano())),
		workerState: make([]atomic.Value, cfg.Workers),
		baseCtx:     ctx,
		baseCancel:  cancel,
	}
	if s.logger == nil {
		s.logger = slog.New(noopHandler{})
	}
	b := obs.GetBuildInfo()
	s.logger.Info("midas-serve starting",
		"version", b.Version, "goversion", b.GoVersion, "revision", b.ShortRevision(),
		"workers", cfg.Workers, "queueDepth", cfg.QueueDepth,
		"batchWindow", cfg.BatchWindow, "flightRecorder", cfg.FlightRecorderSize)
	if cfg.Store != nil {
		cfg.Store.SetRecorder(s.rec)
		// Re-register every manifest name as a lazy entry: the process
		// is query-ready immediately, and each graph's file maps on the
		// first query that names it.
		for name, ni := range cfg.Store.Names() {
			s.registry.addStored(name, ni, cfg.Store)
			s.logger.Info("graph restored from store",
				"name", name, "digest", fmt.Sprintf("%016x", ni.Digest),
				"vertices", ni.Vertices, "edges", ni.Edges)
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s
}

// AddGraph registers g under name programmatically (the API equivalent
// is POST /v1/graphs). Replaces any previous graph of that name. With
// a store configured the graph is written through (content-addressed,
// so re-adding is a free no-op) and the name bound in the manifest —
// a restarted process finds it again.
func (s *Server) AddGraph(name string, g *graph.Graph) uint64 {
	e := s.registry.add(name, g, s.cfg.Store)
	if s.cfg.Store != nil {
		if err := s.writeThrough(name, g, e.Digest); err != nil {
			s.logger.Warn("store write-through failed", "name", name, "error", err.Error())
		}
	}
	return e.Digest
}

// writeThrough persists a freshly-registered graph and its name
// binding. Failure leaves the graph serving from memory — persistence
// degrades, queries do not.
func (s *Server) writeThrough(name string, g *graph.Graph, digest uint64) error {
	if _, _, err := s.cfg.Store.Put(g); err != nil {
		return err
	}
	return s.cfg.Store.SetName(name, digest, g.NumVertices(), g.NumEdges())
}

// Start binds addr (":0" picks a free port; read it back with Addr)
// and serves the API until Shutdown.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.hsrv = &http.Server{Handler: s.Handler()}
	go s.hsrv.Serve(ln) //nolint:errcheck // ErrServerClosed on Shutdown
	return nil
}

// Addr returns the bound listen address (empty before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown drains the service: new admissions get 503 immediately,
// queued and in-flight queries are given until ctx's deadline to
// finish, then everything still running is cancelled. Always stops the
// workers and the HTTP listener before returning.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.logger.Info("draining", "queued", s.queue.len(), "inflight", s.inflight.Load())
	drained := s.awaitIdle(ctx)
	// Cut off whatever remains (no-op when drained cleanly).
	s.baseCancel()
	s.queue.close()
	s.wg.Wait()
	// Queued jobs no worker picked up: fail them out.
	for _, j := range s.queue.drain() {
		s.finishErr(j, nil, errors.New("serve: shut down before execution"))
	}
	s.followers.Wait()
	// No query can be running now; drop the registry's store pins so
	// the mappings become evictable/unmappable.
	s.registry.releaseAll()
	var err error
	if s.hsrv != nil {
		if herr := s.hsrv.Shutdown(context.Background()); herr != nil {
			err = herr
		}
	}
	if !drained && err == nil {
		err = fmt.Errorf("serve: drain deadline expired with work in flight")
	}
	s.logger.Info("stopped", "drained", drained)
	return err
}

// awaitIdle polls until the queue is empty and no execution is in
// flight, or ctx expires. Reports whether the service went idle.
func (s *Server) awaitIdle(ctx context.Context) bool {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.queue.len() == 0 && s.inflight.Load() == 0 {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-tick.C:
		}
	}
}

// Recorder exposes the serve-plane recorder (counters named serve-*,
// queue-wait and query-latency histograms) for embedding in a larger
// telemetry surface.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// worker executes queued jobs until the server stops. Its id indexes
// the workerState table the debug snapshot reads.
func (s *Server) worker(id int) {
	defer s.wg.Done()
	for {
		s.workerState[id].Store("idle")
		j, ok := s.queue.popWait()
		if !ok {
			s.workerState[id].Store("stopped")
			return
		}
		s.runJob(id, j)
	}
}

// runJob takes one admitted job through cache, singleflight, and
// execution — batched when admission batching is on and the query is
// batchable, solo otherwise. Followers do not occupy the worker: they
// are parked on a resolution goroutine and the worker moves on.
func (s *Server) runJob(wid int, j *job) {
	if s.cfg.BatchWindow > 0 && batchable(j) {
		s.workerState[wid].Store("batching")
		s.runBatched(j)
		return
	}
	s.workerState[wid].Store("running")
	lj, ok := s.prepLane(j)
	if !ok {
		return
	}
	s.inflight.Add(1)
	s.executeLane(lj, 0)
	s.inflight.Add(-1)
}

// completeTrace is every job's finish hook: it closes the job's trace
// with the terminal status and hands it to finishTrace. Set at job
// creation, invoked exactly once from job.finish — so every completion
// path (settle, finishErr, drain failures, queue-full rejects) feeds
// the flight recorder and the query access log.
func (s *Server) completeTrace(j *job) {
	if j.trace == nil {
		return
	}
	j.mu.Lock()
	status, err := j.status, j.err
	j.mu.Unlock()
	s.finishTrace(j.trace, status, err)
}

// finishTrace finalizes a query trace: terminal stage, flight-recorder
// retirement (counting ring evictions), the dp-time histogram, the
// structured query access log, and the slow-query log.
func (s *Server) finishTrace(tr *QueryTrace, status string, err error) {
	tr.finish(status, err)
	if ev := s.flightRec.complete(tr); ev > 0 {
		s.rec.Add(obs.ServeTraceEvictions, ev)
	}
	v := tr.view()
	if v.DPMillis > 0 {
		s.rec.Observe(obs.HistServeDPTime, v.DPMillis/1e3)
	}
	attrs := []any{
		"requestId", v.ID, "jobId", v.JobID, "kind", v.Kind, "graph", v.Graph,
		"digest", v.Digest, "k", v.K, "ranks", v.Ranks,
		"disposition", v.Disposition, "lanes", v.Lanes, "status", v.Status,
		"queueMillis", v.QueueMillis, "dpMillis", v.DPMillis, "totalMillis", v.TotalMillis,
	}
	if v.Error != "" {
		attrs = append(attrs, "error", v.Error)
	}
	s.logger.Info("query", attrs...)
	if s.cfg.SlowQuery > 0 && v.TotalMillis >= float64(s.cfg.SlowQuery)/float64(time.Millisecond) {
		s.rec.Add(obs.ServeSlowQueries, 1)
		s.logger.Warn("slow query", attrs...)
	}
}

// resolve settles one job against its flight: normally when the flight
// finishes, early when the job's own context expires first. A job
// leaving as the flight's last member cancels the shared execution —
// and then waits out the (now aborting) flight so the partial DP
// counters still reach the job's result.
func (s *Server) resolve(j *job, f *flight) {
	defer s.followers.Done()
	select {
	case <-f.done:
		s.flights.leave(f)
		s.settle(j, f.res, f.err)
	case <-j.ctx.Done():
		if s.flights.leave(f) {
			<-f.done // aborts at the next batch boundary
			s.settle(j, f.res, j.ctx.Err())
		} else {
			s.settle(j, nil, j.ctx.Err())
		}
	}
}

func (s *Server) settle(j *job, res *Result, err error) {
	if err == nil {
		s.rec.Add(obs.ServeCompleted, 1)
		j.finish(StatusDone, res, nil)
		return
	}
	// The flight's context error is the shared execution's view; the
	// job's own context error (deadline vs explicit cancel) is the one
	// the client should see when both are set.
	if jerr := j.ctx.Err(); jerr != nil && isCtxErr(err) {
		err = jerr
	}
	s.finishErr(j, res, err)
}

// finishErr moves a job to its terminal error state, counting
// abandoned work (context errors) as cancellations.
func (s *Server) finishErr(j *job, res *Result, err error) {
	status := StatusFailed
	if isCtxErr(err) {
		s.rec.Add(obs.ServeCancelled, 1)
		if errors.Is(err, context.Canceled) {
			status = StatusCancelled
		}
	}
	j.finish(status, res, err)
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// execute runs the query's DP under ctx and returns the result with
// its execution counters (also on error, so an aborted sweep reports
// how far it got). Ranks ≤ 1 runs the shared-memory evaluators with
// the server's warm arena; ranks > 1 runs the distributed engine on an
// in-process world with the graph's cached partition. A non-nil trace
// receives live per-phase sweep progress through the evaluators'
// progress callbacks.
func (s *Server) execute(ctx context.Context, req *QueryRequest, tr *QueryTrace) (*Result, error) {
	entry, err := s.registry.get(req.Graph)
	if err != nil {
		return nil, err
	}
	rec := obs.NewRecorder(0, nil)
	res := &Result{Kind: req.Kind}
	handled := false
	if req.Ranks > 1 && s.distRunner != nil {
		handled, err = s.distRunner(ctx, req, rec, res, tr)
	}
	switch {
	case handled:
		// The cluster ran it (or degraded it internally); err stands.
	case req.Ranks > 1:
		err = s.executeDistributed(ctx, entry, req, rec, res, tr)
	default:
		err = s.executeSequential(ctx, entry, req, rec, res, tr)
	}
	snap := rec.Snapshot()
	res.Rounds = snap.Counter(obs.Rounds)
	res.Phases = snap.Counter(obs.Phases)
	res.TotalPhases = req.plannedPhases(entry.Vertices)
	return res, err
}

func (s *Server) executeSequential(ctx context.Context, entry *graphEntry, req *QueryRequest, rec *obs.Recorder, res *Result, tr *QueryTrace) error {
	opt := mld.Options{
		Seed: req.Seed, Epsilon: req.Epsilon, Rounds: req.Rounds,
		N2: req.N2, Workers: req.Workers,
		Arena: s.arena, Ctx: ctx, Obs: rec,
	}
	if tr != nil {
		opt.Progress = tr.progress
	}
	switch req.Kind {
	case KindPath:
		found, err := mld.DetectPath(entry.G, req.K, opt)
		res.Found = found
		return err
	case KindTree:
		tpl, err := req.template()
		if err != nil {
			return err
		}
		found, err := mld.DetectTree(entry.G, tpl, opt)
		res.Found = found
		return err
	case KindScanStat:
		table, err := mld.ScanTable(entry.G, req.K, req.ZMax, opt)
		res.Table = table
		return err
	case KindMotif:
		spec, err := req.motifSpec()
		if err != nil {
			return err
		}
		found, err := mld.DetectMotif(entry.G, spec, opt)
		res.Found = found
		return err
	default:
		return fmt.Errorf("unknown query kind %q", req.Kind)
	}
}

func (s *Server) executeDistributed(ctx context.Context, entry *graphEntry, req *QueryRequest, rec *obs.Recorder, res *Result, tr *QueryTrace) error {
	cfg, err := s.distConfig(entry, req, req.Ranks, tr)
	if err != nil {
		return err
	}
	cfg.Ctx = ctx
	var mu sync.Mutex
	run := func(c *comm.Comm) error {
		c.EnableObs()
		rerr := runDistributedKind(c, entry.G, req, cfg, res)
		snap := c.ObsSnapshot()
		mu.Lock()
		rec.Add(obs.Rounds, snap.Counter(obs.Rounds))
		rec.Add(obs.Phases, snap.Counter(obs.Phases))
		mu.Unlock()
		return rerr
	}
	err = comm.RunLocal(req.Ranks, comm.CostModel{}, run)
	// Every rank returns the same context error; unwrap the world
	// aggregation so clients see the cause directly.
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return context.DeadlineExceeded
		}
		if errors.Is(err, context.Canceled) {
			return context.Canceled
		}
	}
	return err
}

// gauges renders the service's state gauges for /metrics (values that
// are states, not events — the Recorder counter model can't carry
// them).
func (s *Server) gauges() []obs.Metric {
	entries, bytes := s.cache.stats()
	_, frRecent, _, _ := s.flightRec.stats()
	var draining float64
	if s.draining.Load() {
		draining = 1
	}
	out := []obs.Metric{
		obs.Gauge("midas_serve_queue_depth", "Admitted queries waiting for a worker.", float64(s.queue.len())),
		obs.Gauge("midas_serve_queue_capacity", "Admission queue bound (QueueDepth).", float64(s.cfg.QueueDepth)),
		obs.Gauge("midas_serve_inflight", "Query executions currently running a DP.", float64(s.inflight.Load())),
		obs.Gauge("midas_serve_cache_entries", "Result cache entries.", float64(entries)),
		obs.Gauge("midas_serve_cache_bytes", "Approximate result cache bytes.", float64(bytes)),
		obs.Gauge("midas_serve_graphs", "Graphs resident in the registry.", float64(s.registry.size())),
		obs.Gauge("midas_serve_jobs", "Jobs retained in the job table.", float64(s.jobs.size())),
		obs.Gauge("midas_serve_arena_retained_bytes", "DP slab bytes retained by the shared arena.", float64(s.arena.RetainedBytes())),
		obs.Gauge("midas_serve_draining", "1 while the server refuses new admissions to drain.", draining),
		obs.Gauge("midas_serve_batch_window_seconds", "Admission batching window (0 = batching off).", s.cfg.BatchWindow.Seconds()),
		obs.Gauge("midas_serve_batch_max_lanes", "Lane cap per batched execution.", float64(s.cfg.BatchMaxLanes)),
		obs.Gauge("midas_serve_flight_recorder_traces", "Completed query traces retained by the flight recorder.", float64(frRecent)),
		obs.Gauge("midas_uptime_seconds", "Seconds since this midas-serve process started.", time.Since(s.started).Seconds()),
		obs.BuildInfoMetric(),
	}
	if st := s.cfg.Store; st != nil {
		out = append(out,
			obs.Gauge("midas_store_mapped_bytes", "Bytes of graph files resident via the store's mappings.", float64(st.MappedBytes())),
			obs.Gauge("midas_store_resident_graphs", "Stored graphs currently mapped.", float64(st.Resident())),
		)
	}
	if s.extraGauges != nil {
		out = append(out, s.extraGauges()...)
	}
	return out
}
