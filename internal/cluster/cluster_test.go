package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/core"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
	"github.com/midas-hpc/midas/internal/serve"
	"github.com/midas-hpc/midas/internal/store"
)

// fleet is an in-process cluster: every node on its own loopback
// listener with its own store, wired together via SetPeers.
type fleet struct {
	t     *testing.T
	nodes []*Node
	dead  []bool
}

func newFleet(t *testing.T, size, replicas int, mut func(i int, cfg *Config)) *fleet {
	t.Helper()
	f := &fleet{t: t, nodes: make([]*Node, size), dead: make([]bool, size)}
	for i := range f.nodes {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() }) //nolint:errcheck
		cfg := Config{
			Serve:             serve.Config{Workers: 2, Store: st},
			Replicas:          replicas,
			HeartbeatInterval: 50 * time.Millisecond,
			HeartbeatMisses:   2,
			// Far above any test query's runtime, including under the
			// race detector: a slow DP must not read as a dead owner.
			ForwardTimeout: 5 * time.Minute,
		}
		if mut != nil {
			mut(i, &cfg)
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		f.nodes[i] = n
	}
	addrs := f.addrs()
	for _, n := range f.nodes {
		if err := n.SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for i, n := range f.nodes {
			if f.dead[i] {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			n.Shutdown(ctx) //nolint:errcheck
			cancel()
		}
	})
	return f
}

func (f *fleet) addrs() []string {
	out := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.Advertise()
	}
	return out
}

func (f *fleet) kill(i int) {
	f.dead[i] = true
	f.nodes[i].Kill()
}

// indexOf maps an advertise address back to its fleet slot.
func (f *fleet) indexOf(addr string) int {
	for i, n := range f.nodes {
		if n.Advertise() == addr {
			return i
		}
	}
	f.t.Fatalf("no fleet node at %s", addr)
	return -1
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

func getBody(t *testing.T, url string) []byte {
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
	return out
}

// addRandomGraph loads the server-generated random graph via node i's
// API and returns its digest.
func (f *fleet) addRandomGraph(i int, name string, n int, seed uint64) uint64 {
	f.t.Helper()
	resp, body := postJSON(f.t, "http://"+f.nodes[i].Addr()+"/v1/graphs",
		serve.GraphRequest{Name: name, Random: &serve.RandomSpec{N: n, Seed: seed}})
	if resp.StatusCode != http.StatusOK {
		f.t.Fatalf("add graph: %d %s", resp.StatusCode, body)
	}
	var gv serve.GraphView
	if err := json.Unmarshal(body, &gv); err != nil {
		f.t.Fatalf("bad graph view %s: %v", body, err)
	}
	digest, err := strconv.ParseUint(gv.Digest, 16, 64)
	if err != nil {
		f.t.Fatalf("bad digest %q", gv.Digest)
	}
	return digest
}

// runQuery posts q via node i and returns the terminal result plus the
// response headers.
func (f *fleet) runQuery(i int, q serve.QueryRequest) (*serve.Result, http.Header) {
	f.t.Helper()
	b, err := json.Marshal(q)
	if err != nil {
		f.t.Fatal(err)
	}
	resp, err := http.Post("http://"+f.nodes[i].Addr()+"/v1/query", "application/json", bytes.NewReader(b))
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		f.t.Fatalf("query via node %d: %d %s", i, resp.StatusCode, body)
	}
	var jv serve.JobView
	if err := json.Unmarshal(body, &jv); err != nil {
		f.t.Fatalf("bad job JSON %s: %v", body, err)
	}
	if jv.Status != serve.StatusDone || jv.Result == nil {
		f.t.Fatalf("query via node %d not done: %s", i, body)
	}
	return jv.Result, resp.Header
}

// resultJSON normalizes a result for byte comparison: cache hits are a
// serving detail, not part of the answer.
func resultJSON(t *testing.T, r *serve.Result) []byte {
	t.Helper()
	c := *r
	c.Cached = false
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func counterOf(n *Node, c obs.Counter) int64 {
	return n.srv.Recorder().Snapshot().Counter(c)
}

// labeledGraphRequest builds a small deterministic colored graph for
// the motif legs (a ring with chords, colors i mod 3).
func labeledGraphRequest(name string) serve.GraphRequest {
	const n = 30
	var edges [][2]int32
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int32{int32(i), int32((i + 1) % n)})
	}
	for i := 0; i < n; i += 3 {
		edges = append(edges, [2]int32{int32(i), int32((i + 7) % n)})
	}
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i % 3)
	}
	return serve.GraphRequest{Name: name, N: n, Edges: edges, Labels: labels}
}

// TestFleetAnswersMatchSingleNode is the acceptance pin: a 3-replica
// fleet answers path, motif, and scanstat queries byte-identically to
// a single node, through every front — including fronts that do not
// own the shard and must forward.
func TestFleetAnswersMatchSingleNode(t *testing.T) {
	ref := newFleet(t, 1, 1, nil)
	big := newFleet(t, 3, 1, nil) // R=1: exactly one owner, two forwarding fronts

	ref.addRandomGraph(0, "rg", 60, 7)
	digest := big.addRandomGraph(0, "rg", 60, 7)
	postJSON(t, "http://"+ref.nodes[0].Addr()+"/v1/graphs", labeledGraphRequest("cg"))
	postJSON(t, "http://"+big.nodes[0].Addr()+"/v1/graphs", labeledGraphRequest("cg"))

	queries := []serve.QueryRequest{
		{Graph: "rg", Kind: serve.KindPath, K: 6, Seed: 3, Rounds: 2},
		{Graph: "rg", Kind: serve.KindScanStat, K: 4, ZMax: 3, Seed: 5, Rounds: 1, N2: 16},
		{Graph: "cg", Kind: serve.KindMotif, K: 4, Motif: map[string]int{"0": 2, "1": 1}, Seed: 3, Rounds: 2, N2: 16},
	}
	sawForward := false
	for _, q := range queries {
		want, _ := ref.runQuery(0, q)
		for i := range big.nodes {
			got, hdr := big.runQuery(i, q)
			if !bytes.Equal(resultJSON(t, got), resultJSON(t, want)) {
				t.Errorf("%s via node %d: fleet answer %s != single-node %s",
					q.Kind, i, resultJSON(t, got), resultJSON(t, want))
			}
			if hdr.Get(ServedByHeader) != "" {
				sawForward = true
			}
			if hdr.Get(serve.RequestIDHeader) == "" {
				t.Errorf("%s via node %d: no request id on response", q.Kind, i)
			}
		}
	}
	if !sawForward {
		t.Fatal("no query was forwarded — every front owned every shard?")
	}

	// The forwarded hop threads the front's request id: the owner's
	// flight recorder must show the same id the front returned.
	owner := big.indexOf(big.nodes[0].ownersOf(digest)[0])
	front := (owner + 1) % 3
	_, hdr := big.runQuery(front, serve.QueryRequest{Graph: "rg", Kind: serve.KindPath, K: 5, Seed: 11, Rounds: 1})
	reqID := hdr.Get(serve.RequestIDHeader)
	if reqID == "" {
		t.Fatal("forwarded query lost its request id")
	}
	debug := getBody(t, "http://"+big.nodes[owner].Addr()+"/v1/debug/requests")
	if !bytes.Contains(debug, []byte(reqID)) {
		t.Fatalf("owner's flight recorder does not show forwarded request %s", reqID)
	}
	if got := counterOf(big.nodes[front], obs.ClusterForwards); got < 1 {
		t.Fatalf("front forward counter %d, want >= 1", got)
	}
}

// TestPlacementAgreesAcrossFleet: every node derives the same owners
// for every cataloged graph, and the status/debug surfaces expose the
// fleet view.
func TestPlacementAgreesAcrossFleet(t *testing.T) {
	f := newFleet(t, 3, 2, nil)
	f.addRandomGraph(1, "rg", 50, 3)

	var want StatusView
	for i, n := range f.nodes {
		var sv StatusView
		if err := json.Unmarshal(getBody(t, "http://"+n.Addr()+"/v1/cluster/status"), &sv); err != nil {
			t.Fatalf("node %d status: %v", i, err)
		}
		if len(sv.Graphs) != 1 || sv.Graphs[0].Name != "rg" || len(sv.Graphs[0].Owners) != 2 {
			t.Fatalf("node %d placement view %+v", i, sv.Graphs)
		}
		if i == 0 {
			want = sv
			continue
		}
		if fmt.Sprint(sv.Graphs[0].Owners) != fmt.Sprint(want.Graphs[0].Owners) {
			t.Fatalf("node %d owners %v != node 0 owners %v", i, sv.Graphs[0].Owners, want.Graphs[0].Owners)
		}
	}
	// Owners adopted synchronously during the add: both hold the shard.
	for _, o := range want.Graphs[0].Owners {
		if _, _, _, ok := f.nodes[f.indexOf(o)].srv.LookupGraph("rg"); !ok {
			t.Fatalf("owner %s does not hold the shard after add", o)
		}
	}
	// The serve debug snapshot carries the cluster block.
	debug := getBody(t, "http://"+f.nodes[0].Addr()+"/v1/debug/requests")
	if !bytes.Contains(debug, []byte(`"cluster"`)) {
		t.Fatal("debug snapshot missing cluster block")
	}
	// /metrics exposes the fleet gauges.
	metrics := getBody(t, "http://"+f.nodes[0].Addr()+"/metrics")
	for _, name := range []string{
		"midas_cluster_members_alive", "midas_cluster_members_total",
		"midas_cluster_epoch", "midas_cluster_graphs_cataloged",
		"midas_cluster_replication_factor",
	} {
		if !bytes.Contains(metrics, []byte(name)) {
			t.Errorf("metrics missing %s", name)
		}
	}
}

// TestKillOwnerMidQueryRetries is the failure-leg acceptance pin:
// killing a replica while it may be serving a forwarded query yields a
// successful answer from a surviving replica, not a 500.
func TestKillOwnerMidQueryRetries(t *testing.T) {
	ref := newFleet(t, 1, 1, nil)
	f := newFleet(t, 3, 2, nil)
	ref.addRandomGraph(0, "rg", 300, 9)
	digest := f.addRandomGraph(0, "rg", 300, 9)

	owners := f.nodes[0].ownersOf(digest)
	if len(owners) != 2 {
		t.Fatalf("owners %v, want 2", owners)
	}
	front := -1
	for i, n := range f.nodes {
		if n.Advertise() != owners[0] && n.Advertise() != owners[1] {
			front = i
		}
	}
	if front < 0 {
		t.Fatal("no non-owner front in a 3-node R=2 fleet")
	}

	q := serve.QueryRequest{Graph: "rg", Kind: serve.KindPath, K: 12, Seed: 21, Rounds: 1, N2: 32}
	want, _ := ref.runQuery(0, q)

	type answer struct {
		res *serve.Result
		hdr http.Header
	}
	done := make(chan answer, 1)
	go func() {
		res, hdr := f.runQuery(front, q)
		done <- answer{res, hdr}
	}()
	// Kill the first-ranked owner only once the forwarded query has
	// reached it (its replica-hit counter ticks at route time) — a
	// fixed sleep races with heartbeat death detection under the race
	// detector's slowdown, and a kill detected before the query is in
	// flight promotes the front instead of exercising the retry.
	o0 := f.nodes[f.indexOf(owners[0])]
	waitFor := time.Now().Add(30 * time.Second)
	for counterOf(o0, obs.ClusterReplicaHits) == 0 {
		if time.Now().After(waitFor) {
			for i, n := range f.nodes {
				t.Logf("node %d (%s): replica-hits=%d forwards=%d retries=%d",
					i, n.Advertise(), counterOf(n, obs.ClusterReplicaHits),
					counterOf(n, obs.ClusterForwards), counterOf(n, obs.ClusterForwardRetries))
			}
			t.Fatal("forwarded query never reached the owner")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond) // let the DP get properly mid-flight
	f.kill(f.indexOf(owners[0]))

	select {
	case a := <-done:
		if !bytes.Equal(resultJSON(t, a.res), resultJSON(t, want)) {
			t.Fatalf("retried answer %s != single-node %s", resultJSON(t, a.res), resultJSON(t, want))
		}
		if by := a.hdr.Get(ServedByHeader); by != owners[0] && by != owners[1] {
			t.Fatalf("served by %q, want one of %v", by, owners)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("query never finished after owner kill")
	}

	// The dead owner is soon declared dead, which re-places the shard:
	// in a 3-node R=2 fleet the front itself is promoted to owner.
	deadline := time.Now().Add(5 * time.Second)
	for {
		own := f.nodes[front].ownersOf(digest)
		promoted := false
		for _, o := range own {
			if o == owners[0] {
				promoted = false
				break
			}
			if o == f.nodes[front].Advertise() {
				promoted = true
			}
		}
		if promoted {
			// Wait for the rebalance handoff to land the shard too.
			if _, _, _, ok := f.nodes[front].srv.LookupGraph("rg"); ok {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("placement never recovered from the dead owner (owners %v)", own)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// And the re-placed shard serves: the promoted front answers
	// locally (no forward hop).
	res, hdr := f.runQuery(front, serve.QueryRequest{Graph: "rg", Kind: serve.KindPath, K: 6, Seed: 33, Rounds: 1})
	if res == nil || hdr.Get(ServedByHeader) != "" {
		t.Fatalf("promoted front did not serve locally (served by %q)", hdr.Get(ServedByHeader))
	}
}

// TestRebalancePullsShardFromOrigin: when a shard's only owner dies,
// the promoted member pulls the sealed bytes (a store handoff, counted
// and mmapped — not re-parsed) and starts serving.
func TestRebalancePullsShardFromOrigin(t *testing.T) {
	f := newFleet(t, 3, 1, nil)
	addrs := f.addrs()

	// Find a graph whose rendezvous order puts the adding node (0)
	// last: the owner dies, and the promoted second-ranked member must
	// pull from the origin.
	var digest uint64
	var seed uint64
	name := ""
	for s := uint64(1); s < 64; s++ {
		d := graph.RandomNLogN(40, s).Digest()
		rank := rendezvousRank(d, addrs)
		if rank[2] == f.nodes[0].Advertise() {
			seed, digest = s, d
			name = fmt.Sprintf("g%d", s)
			break
		}
	}
	if name == "" {
		t.Fatal("no seed ranked node 0 last; widen the search")
	}
	if got := f.addRandomGraph(0, name, 40, seed); got != digest {
		t.Fatalf("server digest %016x != local %016x", got, digest)
	}

	rank := rendezvousRank(digest, addrs)
	ownerIdx, nextIdx := f.indexOf(rank[0]), f.indexOf(rank[1])
	if _, _, _, ok := f.nodes[nextIdx].srv.LookupGraph(name); ok {
		t.Fatal("second-ranked member holds the shard before the owner died")
	}
	f.kill(ownerIdx)

	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, _, ok := f.nodes[nextIdx].srv.LookupGraph(name); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("promoted member never adopted the shard")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if got := counterOf(f.nodes[nextIdx], obs.ClusterHandoffs); got < 1 {
		t.Fatalf("handoff counter %d, want >= 1", got)
	}
	if !f.nodes[nextIdx].srv.Store().Has(digest) {
		t.Fatal("adopted shard not in the promoted member's store")
	}
	// And the promoted member answers for it.
	res, _ := f.runQuery(nextIdx, serve.QueryRequest{Graph: name, Kind: serve.KindPath, K: 5, Seed: 2, Rounds: 1})
	if res == nil {
		t.Fatal("no result from promoted member")
	}
}

// TestLeaseWorldMatchesInProcess: a ranks>1 query leased across the
// fleet returns the same answer as the single-node in-process world,
// and the peer really held a rank (its flight recorder shows the lease
// call).
func TestLeaseWorldMatchesInProcess(t *testing.T) {
	ref := newFleet(t, 1, 1, nil)
	f := newFleet(t, 2, 2, nil)
	ref.addRandomGraph(0, "rg", 80, 13)
	f.addRandomGraph(0, "rg", 80, 13)

	q := serve.QueryRequest{Graph: "rg", Kind: serve.KindPath, K: 8, Seed: 17, Rounds: 2, Ranks: 2, N1: 2, N2: 32}
	want, _ := ref.runQuery(0, q)
	got, _ := f.runQuery(0, q)
	if !bytes.Equal(resultJSON(t, got), resultJSON(t, want)) {
		t.Fatalf("leased answer %s != in-process %s", resultJSON(t, got), resultJSON(t, want))
	}
	for i, n := range f.nodes {
		if fails := counterOf(n, obs.ClusterLeaseFailures); fails != 0 {
			t.Fatalf("node %d lease failures %d, want 0", i, fails)
		}
	}
	if got := counterOf(f.nodes[1], obs.ClusterLeases); got < 1 {
		t.Fatalf("peer served %d leases — the world never left the process", got)
	}
}

// TestLeaseChaosDegradesInProcess: a lease world whose links are
// severed by the chaos schedule fails, is counted, and the query
// silently degrades to the in-process world with the same answer.
func TestLeaseChaosDegradesInProcess(t *testing.T) {
	spec, err := comm.ParseFaultSpec("sever=0-1,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	ref := newFleet(t, 1, 1, nil)
	f := newFleet(t, 2, 2, func(i int, cfg *Config) {
		cfg.LeaseFault = &spec
		cfg.LeaseConnectTimeout = 2 * time.Second
	})
	ref.addRandomGraph(0, "rg", 80, 13)
	f.addRandomGraph(0, "rg", 80, 13)

	q := serve.QueryRequest{Graph: "rg", Kind: serve.KindPath, K: 8, Seed: 17, Rounds: 2, Ranks: 2, N1: 2, N2: 32}
	want, _ := ref.runQuery(0, q)
	got, _ := f.runQuery(0, q)
	if !bytes.Equal(resultJSON(t, got), resultJSON(t, want)) {
		t.Fatalf("degraded answer %s != in-process %s", resultJSON(t, got), resultJSON(t, want))
	}
	if fails := counterOf(f.nodes[0], obs.ClusterLeaseFailures); fails < 1 {
		t.Fatalf("coordinator lease failures %d, want >= 1", fails)
	}
}

// TestAutoTuneFillsPlan: cluster nodes fill a distributed query's
// unset N1 from core.AutoPlanN1 before keying it, and every query's
// phase width is mld.PlanN2's — both pure functions of the query's
// shape, so replicas derive the same plan and caches stay coherent.
func TestAutoTuneFillsPlan(t *testing.T) {
	f := newFleet(t, 1, 1, nil)
	f.addRandomGraph(0, "rg", 60, 7)
	q := serve.QueryRequest{Graph: "rg", Kind: serve.KindPath, K: 6, Seed: 3, Rounds: 1, Ranks: 2}
	first, _ := f.runQuery(0, q)
	if first.Cached {
		t.Fatal("first query claims cached")
	}
	if want := mld.PlannedPhases(6, mld.PlanN2(0, 60, 6, mld.PathSlabs)); first.TotalPhases != want {
		t.Fatalf("TotalPhases = %d, want the planner's %d", first.TotalPhases, want)
	}
	// The auto-planned N1 is part of the key, so spelling it out must
	// hit the same entry; the phase width is not part of it at all.
	q.N1, q.N2 = core.AutoPlanN1(60, 2), 16
	second, _ := f.runQuery(0, q)
	if !second.Cached {
		t.Fatal("query with the auto-plan spelled out missed the cache — plan not deterministic")
	}
}

// TestStatusAndStrings sanity-checks the remaining small surfaces.
func TestStatusAndStrings(t *testing.T) {
	f := newFleet(t, 2, 2, nil)
	var sv StatusView
	if err := json.Unmarshal(getBody(t, "http://"+f.nodes[0].Addr()+"/v1/cluster/status"), &sv); err != nil {
		t.Fatal(err)
	}
	if sv.Self == "" || sv.Replicas != 2 || len(sv.Members) != 2 {
		t.Fatalf("status %+v", sv)
	}
	states := map[string]bool{}
	for _, m := range sv.Members {
		states[m.State] = true
	}
	if !states[StateAlive] {
		t.Fatalf("no alive members in %+v", sv.Members)
	}
	ping := getBody(t, "http://"+f.nodes[0].Addr()+"/v1/cluster/ping")
	if !strings.Contains(string(ping), `"ok":true`) {
		t.Fatalf("ping %s", ping)
	}
}
