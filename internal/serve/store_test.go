package serve

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
	"github.com/midas-hpc/midas/internal/store"
)

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func storedTestGraph() *graph.Graph {
	g := graph.RandomGNM(120, 400, 71)
	l := make([]int32, g.NumVertices())
	for i := range l {
		l[i] = int32(i % 3)
	}
	g.SetLabels(l)
	return g
}

// TestStoreRestartServesWithoutReparse is the tentpole's end-to-end
// pin: load a graph into a store-backed server, restart (new Server,
// same directory), and require (a) the graph is query-ready by name
// with no re-POST, (b) answers across all kinds and both execution
// modes are byte-identical to a parsed in-memory run, and (c) the
// restarted process answered from the mmap — a store miss, zero
// re-parse (pinned by the counters: the graph arrives via Acquire,
// not AddGraph).
func TestStoreRestartServesWithoutReparse(t *testing.T) {
	dir := t.TempDir()
	g := storedTestGraph()

	// Generation 1: write-through.
	st1 := openTestStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st1})
	s1.AddGraph("persisted", g)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	s1.Shutdown(ctx) //nolint:errcheck
	cancel()

	// Generation 2: a fresh server over the same directory. No AddGraph.
	st2 := openTestStore(t, dir)
	s2 := New(Config{Workers: 2, Store: st2})
	if err := s2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx) //nolint:errcheck
	}()
	base := "http://" + s2.Addr()

	// The restored name must list without forcing a map.
	resp, body := getBody(t, base+"/v1/graphs")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "persisted") {
		t.Fatalf("restored graph not listed: %d %s", resp.StatusCode, body)
	}
	if st2.Resident() != 0 {
		t.Fatal("listing alone mapped the graph; the map must be lazy")
	}

	queries := []QueryRequest{
		{Graph: "persisted", Kind: KindPath, K: 5, Seed: 3, Rounds: 2},
		{Graph: "persisted", Kind: KindPath, K: 4, Seed: 9, Rounds: 2, Ranks: 2},
		{Graph: "persisted", Kind: KindScanStat, K: 4, ZMax: 3, Seed: 5, Rounds: 2},
		{Graph: "persisted", Kind: KindMotif, K: 4, Seed: 7, Rounds: 2,
			Motif: map[string]int{"0": 1, "1": 1}},
	}
	for _, q := range queries {
		resp, body := postJSON(t, base+"/v1/query", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s ranks=%d: %d %s", q.Kind, q.Ranks, resp.StatusCode, body)
		}
		jv := decodeJob(t, body)
		if jv.Status != StatusDone || jv.Result == nil {
			t.Fatalf("%s ranks=%d not done: %s", q.Kind, q.Ranks, body)
		}
		// Byte-identical to the parsed in-memory path.
		switch q.Kind {
		case KindPath:
			want := detectParsedPath(t, g, q)
			if jv.Result.Found != want {
				t.Fatalf("%s ranks=%d: served %v, parsed %v", q.Kind, q.Ranks, jv.Result.Found, want)
			}
		case KindScanStat:
			want, err := mld.ScanTable(g, q.K, q.ZMax, mld.Options{Seed: q.Seed, Rounds: q.Rounds})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				for j := range want[i] {
					if jv.Result.Table[i][j] != want[i][j] {
						t.Fatalf("scan table differs at [%d][%d]", i, j)
					}
				}
			}
		case KindMotif:
			want, err := mld.DetectMotif(g, &mld.MotifSpec{K: q.K, Counts: map[int32]int{0: 1, 1: 1}},
				mld.Options{Seed: q.Seed, Rounds: q.Rounds})
			if err != nil {
				t.Fatal(err)
			}
			if jv.Result.Found != want {
				t.Fatalf("motif: served %v, parsed %v", jv.Result.Found, want)
			}
		}
	}

	// Zero re-parse: exactly one cold map (shared by every query), and
	// the mapped-bytes gauge reflects it.
	if got := s2.rec.Get(obs.StoreMisses); got != 1 {
		t.Fatalf("store misses = %d, want exactly 1 (one lazy map)", got)
	}
	if st2.Resident() != 1 || st2.MappedBytes() != graph.V2FileSize(g) {
		t.Fatalf("residency after queries: %d graphs / %d bytes, want 1 / %d",
			st2.Resident(), st2.MappedBytes(), graph.V2FileSize(g))
	}
	_, metrics := getBody(t, base+"/metrics")
	if v := metricValue(t, string(metrics), "midas_store_mapped_bytes"); int64(v) != graph.V2FileSize(g) {
		t.Fatalf("midas_store_mapped_bytes = %v, want %d", v, graph.V2FileSize(g))
	}
	if v := metricValue(t, string(metrics), "midas_store_misses_total"); v != 1 {
		t.Fatalf("midas_store_misses_total = %v, want 1", v)
	}
}

func detectParsedPath(t *testing.T, g *graph.Graph, q QueryRequest) bool {
	t.Helper()
	// Solo and distributed serve paths both agree with the sequential
	// evaluator (the engine's answers are mode-independent given the
	// seed — the equivalence the serve suite pins elsewhere).
	want, err := mld.DetectPath(g, q.K, mld.Options{Seed: q.Seed, Rounds: q.Rounds})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestStorePartitionArtifactReuse pins the derived-artifact path: a
// distributed query persists its partition, keyed by the graph (its
// digest seeds the partitioner) and not by the query, so queries with
// other seeds reuse it; a restarted server loads the artifact instead
// of re-partitioning (observable as the .midp file existing before the
// second server ever partitions).
func TestStorePartitionArtifactReuse(t *testing.T) {
	dir := t.TempDir()
	g := storedTestGraph()

	st1 := openTestStore(t, dir)
	s1 := New(Config{Workers: 1, Store: st1})
	s1.AddGraph("g", g)
	if err := s1.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	q := QueryRequest{Graph: "g", Kind: KindPath, K: 4, Seed: 9, Rounds: 1, Ranks: 2}
	resp, body := postJSON(t, "http://"+s1.Addr()+"/v1/query", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gen1 query: %d %s", resp.StatusCode, body)
	}
	gen1 := decodeJob(t, body)
	other := q
	other.Seed = 10
	if resp, body := postJSON(t, "http://"+s1.Addr()+"/v1/query", other); resp.StatusCode != http.StatusOK {
		t.Fatalf("gen1 second-seed query: %d %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	s1.Shutdown(ctx) //nolint:errcheck
	cancel()

	// The artifact must have been written through, once for both seeds.
	digest := g.Digest()
	key := store.PartKey{Scheme: "block", Parts: 2, Seed: digest ^ partSeedSalt}
	if _, err := st1.GetPartition(digest, key); err != nil {
		t.Fatalf("partition artifact not persisted: %v", err)
	}
	if names, err := st1.PartArtifacts(digest); err != nil || len(names) != 1 {
		t.Fatalf("artifacts after two query seeds: %v (err %v), want exactly one", names, err)
	}

	// Generation 2 answers the same query identically, with the
	// partition loaded from disk (same answer pins same partition use).
	st2 := openTestStore(t, dir)
	s2 := New(Config{Workers: 1, Store: st2})
	if err := s2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx) //nolint:errcheck
	}()
	resp, body = postJSON(t, "http://"+s2.Addr()+"/v1/query", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gen2 query: %d %s", resp.StatusCode, body)
	}
	gen2 := decodeJob(t, body)
	if gen1.Result == nil || gen2.Result == nil || gen1.Result.Found != gen2.Result.Found {
		t.Fatalf("answers differ across restart: %+v vs %+v", gen1.Result, gen2.Result)
	}
}

// TestStoreMissingGraphIs404 keeps the unknown-name contract with a
// store configured, and distinguishes a manifest entry whose file was
// deleted out from under the store (a 500, not a 404).
func TestStoreMissingGraphIs404(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	s := New(Config{Workers: 1, Store: st})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()
	resp, _ := postJSON(t, "http://"+s.Addr()+"/v1/query",
		QueryRequest{Graph: "nope", Kind: KindPath, K: 3, Rounds: 1})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: %d, want 404", resp.StatusCode)
	}
}
