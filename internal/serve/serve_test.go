package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
)

// testServer returns a started server (own listener) preloaded with a
// small graph named "g", plus a cleanup.
func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	s.AddGraph("g", graph.RandomGNM(60, 180, 1))
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return s
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func decodeJob(t *testing.T, body []byte) JobView {
	t.Helper()
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad job JSON %s: %v", body, err)
	}
	return v
}

// metricValue sums a counter family over all samples in a /metrics
// exposition.
func metricValue(t *testing.T, metrics, name string) float64 {
	t.Helper()
	var total float64
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if len(rest) > 0 && rest[0] != ' ' && rest[0] != '{' {
			continue // longer metric name sharing the prefix
		}
		fields := strings.Fields(line)
		var v float64
		fmt.Sscanf(fields[len(fields)-1], "%g", &v) //nolint:errcheck
		total += v
	}
	return total
}

// TestQueryLifecycle: load a graph via the API, run a query, check the
// answer against the library, then repeat it and require a cache hit.
func TestQueryLifecycle(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	base := "http://" + s.Addr()

	resp, body := postJSON(t, base+"/v1/graphs", GraphRequest{Name: "api", Random: &RandomSpec{N: 50, Seed: 7}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add graph: %d %s", resp.StatusCode, body)
	}
	var gv GraphView
	if err := json.Unmarshal(body, &gv); err != nil || gv.Vertices != 50 {
		t.Fatalf("bad graph view %s (err %v)", body, err)
	}

	q := QueryRequest{Graph: "api", Kind: KindPath, K: 6, Seed: 3, Rounds: 1}
	resp, body = postJSON(t, base+"/v1/query", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	first := decodeJob(t, body)
	if first.Status != StatusDone || first.Result == nil {
		t.Fatalf("first query not done: %s", body)
	}
	if first.Result.Cached {
		t.Fatal("first query claims to be cached")
	}

	resp, body = postJSON(t, base+"/v1/query", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat query: %d %s", resp.StatusCode, body)
	}
	second := decodeJob(t, body)
	if second.Result == nil || !second.Result.Cached {
		t.Fatalf("repeat was not served from cache: %s", body)
	}
	if second.Result.Found != first.Result.Found {
		t.Fatal("cached answer differs from computed answer")
	}

	// The phase width never changes the answer, so — like Workers — it
	// is not part of a query's identity.
	q.N2, q.Workers = 8, 2
	_, body = postJSON(t, base+"/v1/query", q)
	if third := decodeJob(t, body); third.Result == nil || !third.Result.Cached {
		t.Fatalf("query differing only in n2/workers missed the cache: %s", body)
	}
}

// TestTotalPhasesFollowThePlanner: with n2 unset, the reported
// TotalPhases is mld.PlanN2's plan for the query's shape — the same
// width the engine itself ran at, so a completed single-round sweep
// reports Phases == TotalPhases — and an explicit n2 still wins.
func TestTotalPhasesFollowThePlanner(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	base := "http://" + s.Addr()
	const n, k = 500, 9 // the 9-slab families plan 256 here: 2 phases, not 4 and not 1
	lg := graph.RandomGNM(n, 2*n, 6)
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = int32(v % 3)
	}
	lg.SetLabels(labels)
	s.AddGraph("l", lg)
	path9 := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}}
	for _, c := range []struct {
		q    QueryRequest
		want int64
	}{
		{QueryRequest{Graph: "l", Kind: KindPath, K: k}, mld.PlannedPhases(k, mld.PlanN2(0, n, k, mld.PathSlabs))},
		{QueryRequest{Graph: "l", Kind: KindTree, Template: path9}, mld.PlannedPhases(k, mld.PlanN2(0, n, k, mld.LevelSlabs(k)))},
		{QueryRequest{Graph: "l", Kind: KindMotif, K: k, Motif: map[string]int{"0": 2}}, 2},
		{QueryRequest{Graph: "l", Kind: KindPath, K: k, N2: 64, Seed: 1}, 8},
	} {
		c.q.Rounds = 1
		resp, body := postJSON(t, base+"/v1/query", c.q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s query: %d %s", c.q.Kind, resp.StatusCode, body)
		}
		r := decodeJob(t, body).Result
		if r == nil || r.TotalPhases != c.want || r.Phases != c.want {
			t.Fatalf("%s n2=%d: result %+v, want phases = totalPhases = %d", c.q.Kind, c.q.N2, r, c.want)
		}
	}
}

// TestSingleflightRunsDPOnce: two identical queries fired concurrently
// must share one DP execution — after both return, exactly one cache
// miss (one execution) is recorded and at least one requester either
// joined the flight or hit the cache.
func TestSingleflightRunsDPOnce(t *testing.T) {
	s := testServer(t, Config{Workers: 4})
	base := "http://" + s.Addr()
	// k=16 with one round is slow enough (hundreds of ms) that the
	// second query reliably arrives while the first is in flight.
	s.AddGraph("big", graph.RandomGNM(150, 600, 2))
	q := QueryRequest{Graph: "big", Kind: KindPath, K: 16, Seed: 5, Rounds: 1, N2: 64}

	var wg sync.WaitGroup
	results := make([]JobView, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, base+"/v1/query", q)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query %d: %d %s", i, resp.StatusCode, body)
				return
			}
			results[i] = decodeJob(t, body)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if results[0].Result.Found != results[1].Result.Found {
		t.Fatal("shared queries disagree")
	}
	_, metrics := getBody(t, base+"/metrics")
	if misses := metricValue(t, string(metrics), "midas_serve_cache_misses_total"); misses != 1 {
		t.Fatalf("DP ran %v times for two identical concurrent queries, want exactly 1", misses)
	}
}

// TestDeadlineAbortsSweep: a k=18 query with a deadline far below its
// runtime returns 504 with a context error, and its reported phase
// counter proves the 2^k sweep did not complete.
func TestDeadlineAbortsSweep(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	base := "http://" + s.Addr()
	s.AddGraph("big", graph.RandomGNM(300, 1200, 3))
	q := QueryRequest{
		Graph: "big", Kind: KindPath, K: 18, Seed: 1, Rounds: 1, N2: 32,
		TimeoutMillis: 150,
	}
	start := time.Now()
	resp, body := postJSON(t, base+"/v1/query", q)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("got %d %s, want 504", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline query took %v; cancellation is not reaching the DP", elapsed)
	}
	v := decodeJob(t, body)
	if !strings.Contains(v.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", v.Error)
	}
	if v.Result == nil {
		t.Fatal("aborted query carries no execution counters")
	}
	if v.Result.TotalPhases == 0 || v.Result.Phases >= v.Result.TotalPhases {
		t.Fatalf("phases %d / %d: sweep appears to have completed despite the deadline",
			v.Result.Phases, v.Result.TotalPhases)
	}
	_, metrics := getBody(t, base+"/metrics")
	if c := metricValue(t, string(metrics), "midas_serve_cancelled_total"); c < 1 {
		t.Fatalf("cancelled counter %v, want >= 1", c)
	}
}

// TestCancelMidFlight: DELETE /v1/jobs/{id} on a slow async k=18 query
// cancels it mid-flight.
func TestCancelMidFlight(t *testing.T) {
	logger, sig := newLogSignal("sweep started")
	s := testServer(t, Config{Workers: 1, Logger: logger})
	base := "http://" + s.Addr()
	s.AddGraph("big", graph.RandomGNM(300, 1200, 4))
	wait := false
	q := QueryRequest{Graph: "big", Kind: KindPath, K: 18, Seed: 2, Rounds: 1, N2: 32, Wait: &wait}
	resp, body := postJSON(t, base+"/v1/query", q)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", resp.StatusCode, body)
	}
	v := decodeJob(t, body)
	j, ok := s.jobs.get(v.ID)
	if !ok {
		t.Fatal("admitted job is not in the job table")
	}
	await(t, "the sweep to start", sig[0])
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+v.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	await(t, "the job to reach a terminal state", j.done)
	_, jb := getBody(t, base+"/v1/jobs/"+v.ID)
	if jv := decodeJob(t, jb); jv.Status != StatusCancelled {
		t.Fatalf("job finished as %s instead of cancelled", jv.Status)
	}
}

// TestAdmissionRejects: with a tiny queue and one busy worker, excess
// queries get 429 and the reject counter moves.
func TestAdmissionRejects(t *testing.T) {
	s := testServer(t, Config{Workers: 1, QueueDepth: 1})
	base := "http://" + s.Addr()
	s.AddGraph("big", graph.RandomGNM(300, 1200, 5))
	wait := false
	slow := QueryRequest{Graph: "big", Kind: KindPath, K: 18, Seed: 9, Rounds: 1, N2: 32, Wait: &wait}
	// Occupy the worker, fill the queue, then overflow. Seeds differ so
	// neither the cache nor singleflight absorbs the extras.
	got429 := false
	for i := 0; i < 6; i++ {
		q := slow
		q.Seed = uint64(10 + i)
		resp, _ := postJSON(t, base+"/v1/query", q)
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = true
			if ra := resp.Header.Get("Retry-After"); ra != retryAfterQueueFull {
				t.Fatalf("429 Retry-After %q, want %q", ra, retryAfterQueueFull)
			}
			break
		}
	}
	if !got429 {
		t.Fatal("no query was rejected despite queue depth 1 and 1 worker")
	}
	_, metrics := getBody(t, base+"/metrics")
	if r := metricValue(t, string(metrics), "midas_serve_rejected_total"); r < 1 {
		t.Fatalf("rejected counter %v, want >= 1", r)
	}
}

// TestMetricsSurface: the exposition carries the serve counter series
// and the state gauges the operations guide documents.
func TestMetricsSurface(t *testing.T) {
	s := testServer(t, Config{})
	base := "http://" + s.Addr()
	postJSON(t, base+"/v1/query", QueryRequest{Graph: "g", Kind: KindPath, K: 5, Seed: 1, Rounds: 1})
	_, metrics := getBody(t, base+"/metrics")
	for _, name := range []string{
		"midas_serve_admitted_total",
		"midas_serve_rejected_total",
		"midas_serve_cache_hits_total",
		"midas_serve_cache_misses_total",
		"midas_serve_singleflight_shared_total",
		"midas_serve_cancelled_total",
		"midas_serve_completed_total",
		"midas_serve_queue_depth",
		"midas_serve_queue_capacity",
		"midas_serve_inflight",
		"midas_serve_cache_entries",
		"midas_serve_cache_bytes",
		"midas_serve_graphs",
		"midas_serve_draining",
		"midas_serve_queue_wait_seconds",
		"midas_serve_query_latency_seconds",
	} {
		if !strings.Contains(string(metrics), name) {
			t.Errorf("metrics exposition missing %s", name)
		}
	}
}

// TestQueryKindsMatchLibrary: tree and scanstat queries (sequential
// and distributed) agree with direct library calls.
func TestQueryKindsMatchLibrary(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	base := "http://" + s.Addr()
	g := graph.RandomGNM(40, 120, 11)
	w := make([]int64, g.NumVertices())
	for i := range w {
		w[i] = int64(i % 3)
	}
	g.SetWeights(w)
	s.AddGraph("wg", g)

	tpl := [][2]int32{{0, 1}, {1, 2}, {1, 3}}
	resp, body := postJSON(t, base+"/v1/query", QueryRequest{Graph: "wg", Kind: KindTree, Template: tpl, Seed: 2, Rounds: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tree query: %d %s", resp.StatusCode, body)
	}
	treeSeq := decodeJob(t, body)

	resp, body = postJSON(t, base+"/v1/query", QueryRequest{Graph: "wg", Kind: KindScanStat, K: 3, ZMax: 4, Seed: 2, Rounds: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan query: %d %s", resp.StatusCode, body)
	}
	scan := decodeJob(t, body)
	if scan.Result == nil || len(scan.Result.Table) != 4 {
		t.Fatalf("scan table has %d rows, want k+1=4", len(scan.Result.Table))
	}

	// Distributed execution of the same queries must agree.
	resp, body = postJSON(t, base+"/v1/query", QueryRequest{Graph: "wg", Kind: KindTree, Template: tpl, Seed: 2, Rounds: 1, Ranks: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distributed tree query: %d %s", resp.StatusCode, body)
	}
	if dv := decodeJob(t, body); dv.Result.Found != treeSeq.Result.Found {
		t.Fatal("distributed tree answer differs from sequential")
	}
	resp, body = postJSON(t, base+"/v1/query", QueryRequest{Graph: "wg", Kind: KindScanStat, K: 3, ZMax: 4, Seed: 2, Rounds: 1, Ranks: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("distributed scan query: %d %s", resp.StatusCode, body)
	}
	if dv := decodeJob(t, body); fmt.Sprint(dv.Result.Table) != fmt.Sprint(scan.Result.Table) {
		t.Fatal("distributed scan table differs from sequential")
	}
}

// TestBadRequests: malformed queries are rejected before admission.
func TestBadRequests(t *testing.T) {
	s := testServer(t, Config{})
	base := "http://" + s.Addr()
	cases := []QueryRequest{
		{Kind: KindPath, K: 5},                   // no graph
		{Graph: "g", Kind: "nope", K: 5},         // bad kind
		{Graph: "g", Kind: KindPath, K: 0},       // bad k
		{Graph: "g", Kind: KindPath, K: 99},      // k over MaxK
		{Graph: "g", Kind: KindTree},             // tree without template
		{Graph: "missing", Kind: KindPath, K: 5}, // unknown graph (404)
		{Graph: "g", Kind: KindScanStat, K: 3, ZMax: -1},
		{Graph: "g", Kind: KindPath, K: 5, Ranks: 4, N1: 3}, // n1 ∤ ranks
	}
	for i, q := range cases {
		resp, body := postJSON(t, base+"/v1/query", q)
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Errorf("case %d: got %d %s, want 400/404", i, resp.StatusCode, body)
		}
	}
}

// TestGracefulDrain: during Shutdown, in-flight work finishes, new
// admissions get 503, and Shutdown returns cleanly within the window.
func TestGracefulDrain(t *testing.T) {
	logger, sig := newLogSignal("sweep started", "draining")
	s := New(Config{Workers: 2, Logger: logger})
	s.AddGraph("g", graph.RandomGNM(100, 400, 6))
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	// A moderately slow query in flight while we drain.
	type outcome struct {
		code int
		view JobView
	}
	ch := make(chan outcome, 1)
	go func() {
		resp, body := postJSON(t, base+"/v1/query",
			QueryRequest{Graph: "g", Kind: KindPath, K: 14, Seed: 8, Rounds: 1, N2: 64})
		ch <- outcome{resp.StatusCode, decodeJob(t, body)}
	}()
	await(t, "the in-flight query's sweep to start", sig[0])

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Shutdown refuses admissions before it logs "draining", so the
	// first admission after that record must get 503.
	await(t, "the drain to begin", sig[1])
	resp, err := http.Post(base+"/v1/query", "application/json",
		strings.NewReader(`{"graph":"g","kind":"path","k":5}`))
	if err != nil {
		t.Fatalf("admission during the drain: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("admission during the drain got %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != retryAfterDraining {
		t.Errorf("draining 503 Retry-After %q, want %q", ra, retryAfterDraining)
	}
	o := <-ch
	if o.code != http.StatusOK || o.view.Status != StatusDone {
		t.Fatalf("in-flight query did not finish during drain: %d %+v", o.code, o.view)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestForcedDrainCancelsWork: a drain window far shorter than the
// running query cancels it rather than waiting.
func TestForcedDrainCancelsWork(t *testing.T) {
	logger, sig := newLogSignal("sweep started")
	s := New(Config{Workers: 1, Logger: logger})
	s.AddGraph("g", graph.RandomGNM(300, 1200, 6))
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	wait := false
	resp, body := postJSON(t, base+"/v1/query",
		QueryRequest{Graph: "g", Kind: KindPath, K: 18, Seed: 8, Rounds: 1, N2: 32, Wait: &wait})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	await(t, "the sweep to start", sig[0])
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Shutdown(ctx)
	if err == nil {
		t.Fatal("forced drain reported a clean shutdown")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("forced shutdown took %v", elapsed)
	}
}

// TestHTTPTestHandlerMount: the Handler mounts cleanly on an external
// mux/server (embedding use-case).
func TestHTTPTestHandlerMount(t *testing.T) {
	s := New(Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()
	s.AddGraph("g", graph.RandomGNM(30, 60, 1))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Graph: "g", Kind: KindPath, K: 4, Seed: 1, Rounds: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query via mounted handler: %d %s", resp.StatusCode, body)
	}
}
