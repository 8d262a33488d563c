package serve

import (
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
)

// labeledGraph builds the deterministic colored graph used on both
// sides of the serve-vs-library comparisons.
func labeledGraph(n, m int, seed uint64, colors int) *graph.Graph {
	g := graph.RandomGNM(n, m, seed)
	r := rand.New(rand.NewSource(int64(seed)))
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(r.Intn(colors))
	}
	g.SetLabels(labels)
	return g
}

// TestMotifQueryLifecycle: load a labeled graph through the API, run a
// motif query, check it against the library, and require the repeat to
// be a cache hit.
func TestMotifQueryLifecycle(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	base := "http://" + s.Addr()

	// A 6-path colored 0,1,0,1,0,1: it contains a connected 4-subgraph
	// with two of each color, but none with three 1s.
	edges := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}
	labels := []int32{0, 1, 0, 1, 0, 1}
	resp, body := postJSON(t, base+"/v1/graphs", GraphRequest{Name: "colored", N: 6, Edges: edges, Labels: labels})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add labeled graph: %d %s", resp.StatusCode, body)
	}

	oracle := graph.FromEdges(6, edges)
	oracle.SetLabels(labels)
	q := QueryRequest{Graph: "colored", Kind: KindMotif, K: 4,
		Motif: map[string]int{"0": 2, "1": 2}, Seed: 3, Rounds: 2}
	resp, body = postJSON(t, base+"/v1/query", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("motif query: %d %s", resp.StatusCode, body)
	}
	first := decodeJob(t, body)
	if first.Status != StatusDone || first.Result == nil {
		t.Fatalf("motif query not done: %s", body)
	}
	want, err := mld.DetectMotif(oracle, &mld.MotifSpec{K: 4, Counts: map[int32]int{0: 2, 1: 2}},
		mld.Options{Seed: 3, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if first.Result.Found != want {
		t.Fatalf("served %v, library %v", first.Result.Found, want)
	}
	if !want {
		t.Fatal("oracle says the {0:2, 1:2} motif is absent from a 0,1-alternating path")
	}

	resp, body = postJSON(t, base+"/v1/query", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat motif query: %d %s", resp.StatusCode, body)
	}
	if second := decodeJob(t, body); second.Result == nil || !second.Result.Cached {
		t.Fatalf("repeat was not served from cache: %s", body)
	}

	// Same query, different constraint: must NOT hit the first query's
	// cache entry (the constraint is part of the key) and the answer
	// flips — three 1s never sit in one connected 4-subgraph here.
	q2 := q
	q2.Motif = map[string]int{"1": 3}
	resp, body = postJSON(t, base+"/v1/query", q2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("constrained query: %d %s", resp.StatusCode, body)
	}
	third := decodeJob(t, body)
	if third.Result == nil || third.Result.Cached {
		t.Fatalf("different constraint served from cache: %s", body)
	}
	if third.Result.Found {
		t.Fatal("found three color-1 vertices in a connected 4-subgraph of an alternating path")
	}

	// Mismatched labels are rejected at load time.
	resp, body = postJSON(t, base+"/v1/graphs", GraphRequest{Name: "bad", N: 6, Edges: edges, Labels: []int32{0, 1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short label list accepted: %d %s", resp.StatusCode, body)
	}
}

// TestMotifSingleflight: identical concurrent motif queries share one
// DP execution.
func TestMotifSingleflight(t *testing.T) {
	s := testServer(t, Config{Workers: 4})
	base := "http://" + s.Addr()
	s.AddGraph("big", labeledGraph(150, 600, 2, 3))
	q := QueryRequest{Graph: "big", Kind: KindMotif, K: 14,
		Motif: map[string]int{"0": 2, "2": 1}, Seed: 5, Rounds: 1, N2: 64}

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
		t.Fatal("shared motif queries disagree")
	}
	_, metrics := getBody(t, base+"/metrics")
	if misses := metricValue(t, string(metrics), "midas_serve_cache_misses_total"); misses != 1 {
		t.Fatalf("DP ran %v times for two identical concurrent motif queries, want exactly 1", misses)
	}
}

// TestBatchMotif: concurrent motif queries with different constraints
// co-admit into one batched execution; a path query in the same window
// must not share it. Every answer still matches the library.
func TestBatchMotif(t *testing.T) {
	s := testServer(t, Config{Workers: 1, BatchWindow: 250 * time.Millisecond, BatchMaxLanes: 8})
	base := "http://" + s.Addr()
	g := labeledGraph(60, 180, 9, 3)
	s.AddGraph("lg", labeledGraph(60, 180, 9, 3))

	motifs := []QueryRequest{
		{Graph: "lg", Kind: KindMotif, K: 4, Motif: map[string]int{"0": 1, "1": 1}, Seed: 60, Rounds: 1},
		{Graph: "lg", Kind: KindMotif, K: 6, Motif: map[string]int{"2": 3}, Seed: 61, Rounds: 1},
		{Graph: "lg", Kind: KindMotif, K: 5, Motif: nil, Seed: 62, Rounds: 1},
		{Graph: "lg", Kind: KindMotif, K: 5, Motif: map[string]int{"0": 5}, Seed: 63, Rounds: 1},
	}
	odd := QueryRequest{Graph: "lg", Kind: KindPath, K: 5, Seed: 64, Rounds: 1}
	reqs := append(append([]QueryRequest{}, motifs...), odd)

	var wg sync.WaitGroup
	results := make([]JobView, len(reqs))
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, base+"/v1/query", reqs[i])
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
	for i, r := range reqs {
		var want bool
		var err error
		if r.Kind == KindPath {
			want, err = mld.DetectPath(g, r.K, mld.Options{Seed: r.Seed, Rounds: 1})
		} else {
			spec := &mld.MotifSpec{K: r.K, Counts: map[int32]int{}}
			for cs, m := range r.Motif {
				spec.Counts[int32(cs[0]-'0')] = m
			}
			want, err = mld.DetectMotif(g, spec, mld.Options{Seed: r.Seed, Rounds: 1})
		}
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Result == nil || results[i].Result.Found != want {
			t.Fatalf("query %d (%s): got %+v, library %v", i, r.Kind, results[i].Result, want)
		}
	}
	_, metrics := getBody(t, base+"/metrics")
	if batches := metricValue(t, string(metrics), "midas_serve_batches_total"); batches < 1 {
		t.Fatalf("no batched execution recorded (batches=%v)", batches)
	}
}

// TestMotifCancelMidFlight: DELETE on a slow async motif query cancels
// it mid-sweep, with the phase counters proving the early exit. The
// DELETE goes out on the server's "sweep started" log record rather
// than after polling, so a faster sweep cannot outrun the cancel.
func TestMotifCancelMidFlight(t *testing.T) {
	logger, sig := newLogSignal("sweep started")
	s := testServer(t, Config{Workers: 1, Logger: logger})
	base := "http://" + s.Addr()
	s.AddGraph("big", labeledGraph(300, 1200, 4, 3))
	j := submitAsync(t, s, QueryRequest{Graph: "big", Kind: KindMotif, K: 16,
		Motif: map[string]int{"0": 4, "1": 4}, Seed: 2, Rounds: 1, N2: 32})
	await(t, "the sweep to start", sig[0])
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	await(t, "the cancelled job to finish", j.done)
	v := j.view()
	if v.Status != StatusCancelled {
		t.Fatalf("job finished as %s instead of cancelled", v.Status)
	}
	if v.Result == nil || v.Result.TotalPhases == 0 || v.Result.Phases >= v.Result.TotalPhases {
		t.Fatalf("result %+v: want a partial sweep (phases < totalPhases)", v.Result)
	}
}

// TestMotifBadRequests: malformed constraints are rejected before
// admission.
func TestMotifBadRequests(t *testing.T) {
	s := testServer(t, Config{Workers: 1})
	base := "http://" + s.Addr()
	for _, q := range []QueryRequest{
		{Graph: "g", Kind: KindMotif, K: 3, Motif: map[string]int{"0": 4}},   // counts exceed k
		{Graph: "g", Kind: KindMotif, K: 3, Motif: map[string]int{"0": 0}},   // non-positive count
		{Graph: "g", Kind: KindMotif, K: 3, Motif: map[string]int{"huh": 1}}, // unparsable color
		{Graph: "g", Kind: KindMotif, K: 0, Motif: map[string]int{"0": 1}},   // bad k
	} {
		resp, body := postJSON(t, base+"/v1/query", q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad motif %+v accepted: %d %s", q.Motif, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "error") {
			t.Fatalf("no error payload: %s", body)
		}
	}
}
