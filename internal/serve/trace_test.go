package serve

// Tests for the request-scoped observability plane: the end-to-end
// trace of ISSUE acceptance (caller-supplied request ID → access log,
// flight recorder, Chrome trace lane), the disposition pins (cache-hit
// / singleflight-joined / batched-lane each record their own), the
// error envelope, panic recovery, and flight-recorder eviction.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/midas-hpc/midas/internal/graph"
)

// syncBuffer is a goroutine-safe log sink for the slog JSON handler.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func testLogger() (*slog.Logger, *syncBuffer) {
	buf := &syncBuffer{}
	return slog.New(slog.NewJSONHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug})), buf
}

// postJSONID posts a JSON body with an explicit X-Midas-Request-Id.
func postJSONID(t *testing.T, url, id string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := new(bytes.Buffer)
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// fetchTrace fetches one request's TraceView from the debug API.
func fetchTrace(t *testing.T, base, id string) (TraceView, int) {
	t.Helper()
	resp, body := getBody(t, base+"/v1/debug/requests/"+id)
	var v TraceView
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("bad trace JSON %s: %v", body, err)
		}
	}
	return v, resp.StatusCode
}

// stageIndex returns the index of the first stage with the given name
// (-1 when absent).
func stageIndex(v TraceView, name string) int {
	for i, ev := range v.Stages {
		if ev.Stage == name {
			return i
		}
	}
	return -1
}

// accessLogLine finds the first JSON log line with the given msg and
// requestId, decoded into a map.
func accessLogLine(t *testing.T, logs, msg, id string) (map[string]any, bool) {
	t.Helper()
	for _, line := range strings.Split(logs, "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if m["msg"] == msg && m["requestId"] == id {
			return m, true
		}
	}
	return nil, false
}

// TestRequestTraceEndToEnd is the ISSUE acceptance path: a query run
// with a caller-supplied X-Midas-Request-Id is findable by that ID in
// (a) the JSON access log, (b) GET /v1/debug/requests/{id} with a
// monotone received → queued → admitted → dp → done timeline whose dp
// stage carries per-phase progress, and (c) a serve-lane event in the
// exported Chrome trace.
func TestRequestTraceEndToEnd(t *testing.T) {
	logger, logs := testLogger()
	s := testServer(t, Config{Workers: 2, Logger: logger, SlowQuery: time.Nanosecond})
	base := "http://" + s.Addr()
	const id = "trace-e2e-42"

	// k=10 with N2=64 plans 2^10/64 = 16 phases.
	resp, body := postJSONID(t, base+"/v1/query", id, QueryRequest{
		Graph: "g", Kind: KindPath, K: 10, Seed: 7, Rounds: 1, N2: 64,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(RequestIDHeader); got != id {
		t.Fatalf("response %s = %q, want the caller's %q", RequestIDHeader, got, id)
	}

	// (a) The structured query access log carries the ID.
	line, ok := accessLogLine(t, logs.String(), "query", id)
	if !ok {
		t.Fatalf("no query access-log line for %s in:\n%s", id, logs.String())
	}
	for _, field := range []string{"jobId", "kind", "graph", "digest", "disposition", "status", "totalMillis"} {
		if _, ok := line[field]; !ok {
			t.Errorf("access log line missing %q: %v", field, line)
		}
	}
	if line["disposition"] != DispSolo || line["status"] != StatusDone {
		t.Errorf("access log disposition/status = %v/%v, want solo/done", line["disposition"], line["status"])
	}
	// SlowQuery=1ns makes every query slow: the warn line and counter fire.
	if _, ok := accessLogLine(t, logs.String(), "slow query", id); !ok {
		t.Errorf("no slow-query log line despite a 1ns threshold")
	}

	// (b) The flight recorder serves the full stage timeline by ID.
	v, code := fetchTrace(t, base, id)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/debug/requests/%s: %d", id, code)
	}
	if v.ID != id || v.Status != StatusDone || v.Disposition != DispSolo {
		t.Fatalf("trace = id %q status %q disposition %q, want %q/done/solo", v.ID, v.Status, v.Disposition, id)
	}
	order := []string{StageReceived, StageQueued, StageAdmitted, StageDP, StageDone}
	prev := -1
	for _, name := range order {
		i := stageIndex(v, name)
		if i < 0 {
			t.Fatalf("stage %q missing from timeline %+v", name, v.Stages)
		}
		if i <= prev {
			t.Fatalf("stage %q out of order in timeline %+v", name, v.Stages)
		}
		prev = i
	}
	for i := 1; i < len(v.Stages); i++ {
		if v.Stages[i].At.Before(v.Stages[i-1].At) {
			t.Fatalf("stage timestamps not monotone: %+v", v.Stages)
		}
	}
	dp := v.Stages[stageIndex(v, StageDP)]
	if dp.TotalPhases != 16 {
		t.Fatalf("dp stage TotalPhases = %d, want 16", dp.TotalPhases)
	}
	if dp.Phases != 16 {
		t.Fatalf("dp stage Phases = %d, want 16 (per-phase progress not reported)", dp.Phases)
	}
	if v.TotalMillis <= 0 || v.DPMillis <= 0 {
		t.Fatalf("derived latencies TotalMillis=%v DPMillis=%v, want > 0", v.TotalMillis, v.DPMillis)
	}

	// The recorder list shows it completed, and the live snapshot is sane.
	_, reqBody := getBody(t, base+"/v1/debug/requests")
	var dr DebugRequests
	if err := json.Unmarshal(reqBody, &dr); err != nil {
		t.Fatalf("bad /v1/debug/requests JSON: %v", err)
	}
	found := false
	for _, tv := range dr.Recent {
		if tv.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s not in recent completions", id)
	}
	if dr.Snapshot.QueueCapacity != 64 || len(dr.Snapshot.Workers) != 2 {
		t.Errorf("snapshot queueCapacity=%d workers=%v, want 64 / 2 entries", dr.Snapshot.QueueCapacity, dr.Snapshot.Workers)
	}
	if dr.Snapshot.Build.GoVersion == "" || dr.Snapshot.UptimeSeconds <= 0 {
		t.Errorf("snapshot build/uptime not populated: %+v", dr.Snapshot)
	}

	// (c) The Chrome trace export has a serve-lane span for the request.
	_, traceBody := getBody(t, base+"/v1/debug/trace")
	if !strings.Contains(string(traceBody), "midas-serve queries") {
		t.Fatalf("Chrome export missing the serve process lane:\n%.400s", traceBody)
	}
	if !strings.Contains(string(traceBody), "req "+id) {
		t.Fatalf("Chrome export missing the request's span (want %q)", "req "+id)
	}

	// Slow-query counter made it to /metrics, alongside build info.
	_, metrics := getBody(t, base+"/metrics")
	if c := metricValue(t, string(metrics), "midas_serve_slow_queries_total"); c < 1 {
		t.Errorf("slow-query counter %v, want >= 1", c)
	}
	if !strings.Contains(string(metrics), "midas_build_info{") {
		t.Errorf("/metrics missing midas_build_info")
	}
	if !strings.Contains(string(metrics), "midas_uptime_seconds") {
		t.Errorf("/metrics missing midas_uptime_seconds")
	}
}

// TestTraceDispositionCacheHit: a repeat of a finished query records
// the cache-hit disposition with a received → cache-hit → done
// timeline and no job.
func TestTraceDispositionCacheHit(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	base := "http://" + s.Addr()
	q := QueryRequest{Graph: "g", Kind: KindPath, K: 6, Seed: 3, Rounds: 1}

	if resp, body := postJSONID(t, base+"/v1/query", "disp-first", q); resp.StatusCode != http.StatusOK {
		t.Fatalf("first query: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSONID(t, base+"/v1/query", "disp-cached", q); resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat query: %d %s", resp.StatusCode, body)
	}
	v, code := fetchTrace(t, base, "disp-cached")
	if code != http.StatusOK {
		t.Fatalf("trace fetch: %d", code)
	}
	if v.Disposition != DispCacheHit || v.Status != StatusDone {
		t.Fatalf("disposition %q status %q, want cache-hit/done", v.Disposition, v.Status)
	}
	if stageIndex(v, StageCacheHit) < 0 {
		t.Fatalf("no cache-hit stage in %+v", v.Stages)
	}
	if v.JobID != "" {
		t.Fatalf("cache fast-path trace has job %q, want none", v.JobID)
	}
}

// TestTraceDispositionSingleflight: a query identical to one already
// executing attaches to its flight and records singleflight-joined.
func TestTraceDispositionSingleflight(t *testing.T) {
	logger, sig := newLogSignal("sweep started")
	s := testServer(t, Config{Workers: 4, Logger: logger})
	base := "http://" + s.Addr()
	s.AddGraph("big", graph.RandomGNM(150, 600, 2))
	q := QueryRequest{Graph: "big", Kind: KindPath, K: 16, Seed: 5, Rounds: 1, N2: 64}

	done := make(chan struct{})
	go func() {
		defer close(done)
		postJSONID(t, base+"/v1/query", "disp-sf-lead", q)
	}()
	// Wait until the leader's DP is actually running, so the follower
	// deterministically finds an open flight (not an empty cache slot).
	await(t, "the leader's sweep to start", sig[0])
	resp, body := postJSONID(t, base+"/v1/query", "disp-sf-join", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower query: %d %s", resp.StatusCode, body)
	}
	<-done

	v, code := fetchTrace(t, base, "disp-sf-join")
	if code != http.StatusOK {
		t.Fatalf("trace fetch: %d", code)
	}
	if v.Disposition != DispSingleflight {
		t.Fatalf("follower disposition %q, want singleflight-joined", v.Disposition)
	}
	if stageIndex(v, StageSingleflightJoined) < 0 {
		t.Fatalf("no singleflight-joined stage in %+v", v.Stages)
	}
	if lead, _ := fetchTrace(t, base, "disp-sf-lead"); lead.Disposition != DispSolo {
		t.Fatalf("leader disposition %q, want solo", lead.Disposition)
	}
}

// TestTraceDispositionBatchedLane: two compatible queries assembled
// into one batched execution both record batched-lane with the batch's
// occupancy and per-lane final phase counts.
func TestTraceDispositionBatchedLane(t *testing.T) {
	s := testServer(t, Config{Workers: 1, BatchWindow: 250 * time.Millisecond, BatchMaxLanes: 8})
	base := "http://" + s.Addr()

	var wg sync.WaitGroup
	for i, k := range []int{6, 7} {
		wg.Add(1)
		go func(i, k int) {
			defer wg.Done()
			resp, body := postJSONID(t, base+"/v1/query", fmt.Sprintf("disp-lane-%d", i), QueryRequest{
				Graph: "g", Kind: KindPath, K: k, Seed: uint64(20 + i), Rounds: 1,
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query %d: %d %s", i, resp.StatusCode, body)
			}
		}(i, k)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, k := range []int{6, 7} {
		v, code := fetchTrace(t, base, fmt.Sprintf("disp-lane-%d", i))
		if code != http.StatusOK {
			t.Fatalf("trace %d fetch: %d", i, code)
		}
		if v.Disposition != DispBatchedLane || v.Lanes != 2 {
			t.Fatalf("trace %d disposition %q lanes %d, want batched-lane/2", i, v.Disposition, v.Lanes)
		}
		bi := stageIndex(v, StageBatchAssembled)
		if bi < 0 {
			t.Fatalf("trace %d has no batch-assembled stage: %+v", i, v.Stages)
		}
		dpi := stageIndex(v, StageDP)
		if dpi < bi {
			t.Fatalf("trace %d dp stage precedes batch assembly: %+v", i, v.Stages)
		}
		want := int64(1 << uint(k) / 128)
		if want < 1 {
			want = 1
		}
		if dp := v.Stages[dpi]; dp.Phases != want {
			t.Fatalf("trace %d (k=%d) dp phases %d, want %d from its LaneResult", i, k, dp.Phases, want)
		}
	}
	_, metrics := getBody(t, base+"/metrics")
	if c := metricValue(t, string(metrics), "midas_serve_batch_assembly_seconds_count"); c < 1 {
		t.Errorf("batch-assembly histogram count %v, want >= 1", c)
	}
}

// TestErrorEnvelopeCarriesRequestID: error responses are the uniform
// {error, request_id} envelope, echoing the caller-supplied ID.
func TestErrorEnvelopeCarriesRequestID(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	base := "http://" + s.Addr()

	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, "env-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	var env apiError
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == "" || env.RequestID != "env-1" {
		t.Fatalf("envelope %+v, want error text and request_id env-1", env)
	}
	if got := resp.Header.Get(RequestIDHeader); got != "env-1" {
		t.Fatalf("response header ID %q, want env-1", got)
	}

	// Without a caller ID the server generates one and still stamps both.
	resp2, body2 := getBody(t, base+"/v1/jobs/nope")
	var env2 apiError
	if err := json.Unmarshal(body2, &env2); err != nil {
		t.Fatal(err)
	}
	if env2.RequestID == "" || resp2.Header.Get(RequestIDHeader) != env2.RequestID {
		t.Fatalf("generated ID mismatch: envelope %q, header %q", env2.RequestID, resp2.Header.Get(RequestIDHeader))
	}
}

// TestMiddlewareRecoversPanic: a handler panic becomes a JSON 500
// envelope instead of a dropped connection.
func TestMiddlewareRecoversPanic(t *testing.T) {
	logger, logs := testLogger()
	s := New(Config{Workers: 1, Logger: logger})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	h := s.middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/query", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rr.Code)
	}
	var env apiError
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
		t.Fatalf("panic response is not the JSON envelope: %q", rr.Body.String())
	}
	if env.RequestID == "" {
		t.Fatal("panic envelope has no request_id")
	}
	if !strings.Contains(logs.String(), "boom") {
		t.Fatal("panic not logged")
	}
}

// TestFlightRecorderEviction: completed traces past the ring capacity
// are evicted oldest-first and counted.
func TestFlightRecorderEviction(t *testing.T) {
	s := testServer(t, Config{Workers: 1, FlightRecorderSize: 2})
	base := "http://" + s.Addr()
	for i := 0; i < 4; i++ {
		resp, body := postJSONID(t, base+"/v1/query", fmt.Sprintf("evict-%d", i), QueryRequest{
			Graph: "g", Kind: KindPath, K: 4, Seed: uint64(100 + i), Rounds: 1,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, resp.StatusCode, body)
		}
	}
	_, body := getBody(t, base+"/v1/debug/requests")
	var dr DebugRequests
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if len(dr.Recent) != 2 {
		t.Fatalf("recent ring holds %d traces, want 2", len(dr.Recent))
	}
	if dr.Snapshot.FlightRecorder.Evicted != 2 {
		t.Fatalf("evicted %d, want 2", dr.Snapshot.FlightRecorder.Evicted)
	}
	if dr.Recent[0].ID != "evict-3" || dr.Recent[1].ID != "evict-2" {
		t.Fatalf("recent order %q/%q, want evict-3/evict-2 (newest first)", dr.Recent[0].ID, dr.Recent[1].ID)
	}
	if _, code := fetchTrace(t, base, "evict-0"); code != http.StatusNotFound {
		t.Fatalf("evicted trace still resolvable (code %d)", code)
	}
	_, metrics := getBody(t, base+"/metrics")
	if c := metricValue(t, string(metrics), "midas_serve_trace_evictions_total"); c != 2 {
		t.Fatalf("eviction counter %v, want 2", c)
	}
}
