package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/midas-hpc/midas/internal/core"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
)

// Query kinds.
const (
	KindPath     = "path"
	KindTree     = "tree"
	KindScanStat = "scanstat"
	KindMotif    = "motif"
)

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	Graph string `json:"graph"`
	Kind  string `json:"kind"`
	K     int    `json:"k,omitempty"` // path/scanstat size; tree derives k from the template

	Template [][2]int32     `json:"template,omitempty"` // tree edge list
	ZMax     int64          `json:"zmax,omitempty"`     // scanstat weight cap
	Motif    map[string]int `json:"motif,omitempty"`    // motif color → minimum count (JSON keys are decimal colors)

	Seed    uint64  `json:"seed,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"`
	Rounds  int     `json:"rounds,omitempty"`
	N2      int     `json:"n2,omitempty"`
	Workers int     `json:"workers,omitempty"` // shared-memory DP workers (ranks ≤ 1)

	Ranks  int    `json:"ranks,omitempty"`  // >1 = distributed in-process world
	N1     int    `json:"n1,omitempty"`     // graph parts; default ranks
	Scheme string `json:"scheme,omitempty"` // partition scheme; default "block"

	TimeoutMillis int64 `json:"timeoutMillis,omitempty"` // per-query deadline
	Wait          *bool `json:"wait,omitempty"`          // default true: block until terminal
}

func (r *QueryRequest) wait() bool { return r.Wait == nil || *r.Wait }

func (r *QueryRequest) template() (*graph.Template, error) {
	if len(r.Template) == 0 {
		return nil, errors.New("tree query needs a template edge list")
	}
	k := int32(0)
	for _, e := range r.Template {
		if e[0] > k {
			k = e[0]
		}
		if e[1] > k {
			k = e[1]
		}
	}
	return graph.NewTemplate(int(k)+1, r.Template)
}

// motifSpec builds the query's constraint. JSON object keys are
// strings, so colors arrive as decimal text ("2": 1).
func (r *QueryRequest) motifSpec() (*mld.MotifSpec, error) {
	counts := make(map[int32]int, len(r.Motif))
	for cs, m := range r.Motif {
		c, err := strconv.ParseInt(cs, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("motif color %q: %v", cs, err)
		}
		counts[int32(c)] = m
	}
	spec := &mld.MotifSpec{K: r.K, Counts: counts}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// validate normalizes the request and rejects malformed ones before
// admission, so the queue only ever holds runnable queries.
func (r *QueryRequest) validate() error {
	if r.Graph == "" {
		return errors.New("missing graph name")
	}
	switch r.Kind {
	case KindPath, KindScanStat:
		if err := mld.ValidateK(r.K); err != nil {
			return err
		}
		if r.Kind == KindScanStat && r.ZMax < 0 {
			return fmt.Errorf("negative zmax %d", r.ZMax)
		}
	case KindTree:
		tpl, err := r.template()
		if err != nil {
			return err
		}
		r.K = tpl.K()
		if err := mld.ValidateK(r.K); err != nil {
			return err
		}
	case KindMotif:
		if _, err := r.motifSpec(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown query kind %q (want path, tree, scanstat, or motif)", r.Kind)
	}
	if r.Ranks > 1 {
		n1 := r.N1
		if n1 <= 0 {
			n1 = r.Ranks
		}
		if r.Ranks%n1 != 0 {
			return fmt.Errorf("n1=%d must divide ranks=%d", n1, r.Ranks)
		}
	}
	return nil
}

// slabs is the query kind's DP slab count, the family input of the
// phase-width plan.
func (r *QueryRequest) slabs() int {
	switch r.Kind {
	case KindPath:
		return mld.PathSlabs
	case KindScanStat:
		return mld.WeightSlabs(r.K, r.ZMax)
	default: // tree, motif
		return mld.LevelSlabs(r.K)
	}
}

// plannedPhases is the full sweep's phase count for one round on a
// graph of the given vertex count, run as one of `lanes` batch lanes —
// what Phases would reach if a single-round query ran to completion,
// at the width the engines themselves plan (mld.PlanN2). Scanstat runs
// one sweep per size j ≤ k; this reports the size-k sweep, the
// dominant term.
func (r *QueryRequest) plannedPhases(vertices int) int64 {
	return mld.PlannedPhases(r.K, mld.PlanN2(r.N2, vertices, r.K, r.slabs()))
}

// key is the query's cache/singleflight identity: the graph's content
// digest plus every parameter that selects what is computed and how it
// is seeded or placed. Workers and N2 are deliberately excluded —
// neither the shared-memory worker count nor the phase width ever
// changes the totals (only Phases/TotalPhases, which describe the run
// that produced the cached answer).
func (r *QueryRequest) key(digest uint64) string {
	const prime = 1099511628211
	tpl := uint64(0)
	if len(r.Template) > 0 {
		h := uint64(14695981039346656037)
		for _, e := range r.Template {
			h ^= uint64(uint32(e[0]))
			h *= prime
			h ^= uint64(uint32(e[1]))
			h *= prime
		}
		tpl = h
	}
	motif := uint64(0)
	if len(r.Motif) > 0 {
		// Canonical order: sorted color keys, so equal constraints hash
		// equal regardless of map iteration.
		keys := make([]string, 0, len(r.Motif))
		for c := range r.Motif {
			keys = append(keys, c)
		}
		sort.Strings(keys)
		h := uint64(14695981039346656037)
		for _, c := range keys {
			for i := 0; i < len(c); i++ {
				h ^= uint64(c[i])
				h *= prime
			}
			h ^= uint64(uint32(r.Motif[c]))
			h *= prime
		}
		motif = h
	}
	return fmt.Sprintf("g=%016x|kind=%s|k=%d|tpl=%016x|z=%d|mo=%016x|seed=%d|eps=%g|r=%d|ranks=%d|n1=%d|sch=%s",
		digest, r.Kind, r.K, tpl, r.ZMax, motif, r.Seed, r.Epsilon, r.Rounds, r.Ranks, r.N1, r.Scheme)
}

// Result is a finished query's payload.
type Result struct {
	Kind  string   `json:"kind"`
	Found bool     `json:"found,omitempty"`
	Table [][]bool `json:"table,omitempty"`
	// Cached marks a result served from the result cache.
	Cached bool `json:"cached,omitempty"`
	// Rounds/Phases are the DP execution counters; for a query stopped
	// by its deadline, Phases < TotalPhases is the proof it did not
	// finish the 2^k sweep.
	Rounds      int64 `json:"rounds"`
	Phases      int64 `json:"phases"`
	TotalPhases int64 `json:"totalPhases,omitempty"`
}

func (r *Result) cachedCopy() *Result {
	c := *r
	c.Cached = true
	return &c
}

// size approximates the result's retained bytes for the cache bound.
func (r *Result) size() int64 {
	n := int64(128)
	for _, row := range r.Table {
		n += int64(len(row)) + 24
	}
	return n
}

// JobView is the API's job representation (POST /v1/query responses
// and GET /v1/jobs/{id}).
type JobView struct {
	ID        string  `json:"id"`
	Status    string  `json:"status"`
	Result    *Result `json:"result,omitempty"`
	Error     string  `json:"error,omitempty"`
	RunMillis float64 `json:"runMillis,omitempty"`
}

// GraphRequest is the body of POST /v1/graphs: load a graph under a
// name, from an inline edge list, a server-local file, or a seeded
// generator (handy for smoke tests).
type GraphRequest struct {
	Name    string      `json:"name"`
	Path    string      `json:"path,omitempty"`  // server-local file (graph.Load formats)
	N       int         `json:"n,omitempty"`     // inline: vertex count
	Edges   [][2]int32  `json:"edges,omitempty"` // inline: edge list
	Weights []int64     `json:"weights,omitempty"`
	Labels  []int32     `json:"labels,omitempty"` // per-vertex colors (motif queries)
	Random  *RandomSpec `json:"random,omitempty"`
}

// RandomSpec asks the server to generate an Erdős–Rényi n·ln n graph.
type RandomSpec struct {
	N    int    `json:"n"`
	Seed uint64 `json:"seed"`
}

// GraphView describes a resident graph.
type GraphView struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Digest   string `json:"digest"` // hex of graph.Digest()
}

func graphView(e *graphEntry) GraphView {
	// Shape comes from the entry, not e.G: a store-backed graph may not
	// be mapped yet, and listings must not force the map.
	return GraphView{
		Name:     e.Name,
		Vertices: e.Vertices,
		Edges:    e.Edges,
		Digest:   strconv.FormatUint(e.Digest, 16),
	}
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/graphs              load/register a graph
//	GET    /v1/graphs              list resident graphs
//	POST   /v1/query               run (or join, or hit the cache for) a query
//	GET    /v1/jobs/{id}           job status and result
//	DELETE /v1/jobs/{id}           cancel a job
//	GET    /v1/debug/requests      flight recorder + live service snapshot
//	GET    /v1/debug/requests/{id} one request's stage timeline
//	GET    /v1/debug/trace         flight recorder as Chrome trace JSON
//	GET    /metrics                Prometheus text format (midas_serve_* series)
//	GET    /healthz                liveness
//	/debug/pprof/                  standard profiler
//
// The whole tree runs behind the request-ID/recovery/access-log
// middleware: every response carries X-Midas-Request-Id.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", s.handleAddGraph)
	mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /v1/debug/requests/{id}", s.handleDebugRequest)
	mux.HandleFunc("GET /v1/debug/trace", s.handleDebugTrace)
	source := obs.SnapshotSource(s.rec)
	mux.Handle("GET /metrics", obs.MetricsHandler(source, s.gauges))
	mux.Handle("GET /healthz", obs.HealthzHandler(source))
	obs.RegisterPprof(mux)
	if s.extraRoutes != nil {
		s.extraRoutes(mux)
	}
	return s.middleware(mux)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// apiError is the uniform error envelope: every non-2xx response body
// is {error, request_id}, so a client (or an operator grepping logs)
// can correlate any failure with its access-log line and flight-recorder
// trace by ID.
type apiError struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func writeErr(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...), RequestID: requestIDOf(r)})
}

// Backoff hints on load-shedding responses, so fleet-internal
// forwarding and external clients sleep instead of hot-looping. Queue
// pressure clears in about a query's latency; a drain means the
// process is going away and the client should find another replica.
const (
	retryAfterQueueFull = "1"  // seconds; 429
	retryAfterDraining  = "10" // seconds; 503
)

func (s *Server) handleAddGraph(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterDraining)
		writeErr(w, r, http.StatusServiceUnavailable, "server is draining")
		return
	}
	var req GraphRequest
	r.Body = http.MaxBytesReader(w, r.Body, 256<<20)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad graph request: %v", err)
		return
	}
	if req.Name == "" {
		writeErr(w, r, http.StatusBadRequest, "missing graph name")
		return
	}
	var g *graph.Graph
	switch {
	case req.Path != "":
		var err error
		g, err = graph.Load(req.Path)
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, "load %s: %v", req.Path, err)
			return
		}
	case req.Random != nil:
		if req.Random.N <= 0 {
			writeErr(w, r, http.StatusBadRequest, "random graph needs n > 0")
			return
		}
		g = graph.RandomNLogN(req.Random.N, req.Random.Seed)
	case req.N > 0:
		g = graph.FromEdges(req.N, req.Edges)
	default:
		writeErr(w, r, http.StatusBadRequest, "graph request needs path, random, or n+edges")
		return
	}
	if len(req.Weights) > 0 {
		if len(req.Weights) != g.NumVertices() {
			writeErr(w, r, http.StatusBadRequest, "%d weights for %d vertices", len(req.Weights), g.NumVertices())
			return
		}
		g.SetWeights(req.Weights)
	}
	if len(req.Labels) > 0 {
		if len(req.Labels) != g.NumVertices() {
			writeErr(w, r, http.StatusBadRequest, "%d labels for %d vertices", len(req.Labels), g.NumVertices())
			return
		}
		g.SetLabels(req.Labels)
	}
	digest := s.AddGraph(req.Name, g)
	s.logger.Info("graph registered",
		"name", req.Name, "vertices", g.NumVertices(), "edges", g.NumEdges(),
		"digest", strconv.FormatUint(digest, 16))
	e, err := s.registry.get(req.Name)
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	if s.graphAdded != nil {
		s.graphAdded(e.Name, e.Digest, e.Vertices, e.Edges)
	}
	writeJSON(w, http.StatusOK, graphView(e))
}

func (s *Server) handleListGraphs(w http.ResponseWriter, _ *http.Request) {
	entries := s.registry.list()
	out := make([]GraphView, 0, len(entries))
	for _, e := range entries {
		out = append(out, graphView(e))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterDraining)
		writeErr(w, r, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// Cluster routing: the hook may proxy the query to a shard owner
	// and fully handle the exchange; a false return serves it here.
	if s.queryRouter != nil && s.queryRouter(w, r) {
		return
	}
	var req QueryRequest
	r.Body = http.MaxBytesReader(w, r.Body, 4<<20)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad query: %v", err)
		return
	}
	if err := req.validate(); err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad query: %v", err)
		return
	}
	entry, err := s.registry.get(req.Graph)
	if err != nil {
		// Unknown name is the client's mistake; a store map failure
		// (missing or corrupt repository file) is ours.
		code := http.StatusNotFound
		if !errors.Is(err, errUnknownGraph) {
			code = http.StatusInternalServerError
		}
		writeErr(w, r, code, "%v", err)
		return
	}
	// Auto-plan the unset graph-part count from the graph's shape —
	// before the cache key is computed, so the chosen placement is part
	// of the query's identity. (The phase width needs no such step: the
	// engines plan an unset N2 themselves, identically everywhere.)
	if s.cfg.AutoTune && req.Ranks > 1 && req.N1 <= 0 {
		req.N1 = core.AutoPlanN1(entry.Vertices, req.Ranks)
	}
	key := req.key(entry.Digest)
	ri := s.requestInfo(r)
	tr := newQueryTrace(ri.id, ri.received, &req, entry.Digest)
	s.flightRec.start(tr)

	// Fast path: an identical finished query — the trace never becomes
	// a job: received → cache-hit → done, all on the handler goroutine.
	if res, ok := s.cache.get(key); ok {
		s.rec.Add(obs.ServeCacheHits, 1)
		tr.setDisposition(DispCacheHit, 0)
		tr.stage(StageCacheHit)
		s.finishTrace(tr, StatusDone, nil)
		writeJSON(w, http.StatusOK, JobView{Status: StatusDone, Result: res.cachedCopy()})
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	j := s.jobs.newJob(s.baseCtx, key, &req, timeout)
	j.digest, j.vertices = entry.Digest, entry.Vertices
	j.trace = tr
	j.finishHook = s.completeTrace
	tr.setJob(j.ID)
	// Stage "queued" before the push: once pushed, a worker may stamp
	// "admitted" at any instant, and the timeline must stay monotone.
	tr.stage(StageQueued)
	if s.queue.push(j) {
		s.rec.Add(obs.ServeAdmitted, 1)
		s.logger.Debug("query admitted",
			"requestId", ri.id, "jobId", j.ID, "kind", req.Kind, "graph", req.Graph, "k", req.K)
	} else {
		s.rec.Add(obs.ServeRejected, 1)
		j.finish(StatusFailed, nil, errors.New("admission queue full"))
		w.Header().Set("Retry-After", retryAfterQueueFull)
		writeErr(w, r, http.StatusTooManyRequests, "admission queue full (depth %d)", s.cfg.QueueDepth)
		return
	}

	if !req.wait() {
		writeJSON(w, http.StatusAccepted, j.view())
		return
	}
	select {
	case <-j.done:
		writeJobView(w, j)
	case <-r.Context().Done():
		// Client went away; stop charging them for the answer.
		j.cancel()
		<-j.done
		writeJobView(w, j)
	}
}

// writeJobView maps a terminal job to its HTTP status: 200 for done
// and client-side cancels, 504 for a query killed by its deadline, 500
// for other failures.
func writeJobView(w http.ResponseWriter, j *job) {
	v := j.view()
	code := http.StatusOK
	j.mu.Lock()
	err := j.err
	j.mu.Unlock()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case v.Status == StatusFailed:
		code = http.StatusInternalServerError
	}
	writeJSON(w, code, v)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, r, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeErr(w, r, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.logger.Info("job cancel requested", "jobId", j.ID, "requestId", requestIDOf(r))
	j.cancel()
	writeJSON(w, http.StatusOK, j.view())
}
