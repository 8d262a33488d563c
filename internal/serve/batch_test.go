package serve

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
)

// logSignal is a log handler that closes one channel per watched
// message at the server's first record with that message — "batch
// assembled" (logged by the batch leader right before it executes the
// lanes), "sweep started" (logged right before a lane's DP sweep) or
// "draining" (logged by Shutdown once admissions are refused) — so
// tests wait on the event instead of polling.
type logSignal map[string]*logEvent

type logEvent struct {
	once sync.Once
	ch   chan struct{}
}

// newLogSignal watches msgs and returns their channels in that order.
func newLogSignal(msgs ...string) (*slog.Logger, []<-chan struct{}) {
	h := make(logSignal, len(msgs))
	chs := make([]<-chan struct{}, len(msgs))
	for i, msg := range msgs {
		e := &logEvent{ch: make(chan struct{})}
		h[msg] = e
		chs[i] = e.ch
	}
	return slog.New(h), chs
}

func (h logSignal) Enabled(context.Context, slog.Level) bool { return true }
func (h logSignal) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h logSignal) WithGroup(string) slog.Handler            { return h }
func (h logSignal) Handle(_ context.Context, r slog.Record) error {
	if e := h[r.Message]; e != nil {
		e.once.Do(func() { close(e.ch) })
	}
	return nil
}

// submitAsync posts a wait:false query and returns its admitted job.
func submitAsync(t *testing.T, s *Server, q QueryRequest) *job {
	t.Helper()
	wait := false
	q.Wait = &wait
	resp, body := postJSON(t, "http://"+s.Addr()+"/v1/query", q)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", resp.StatusCode, body)
	}
	j, ok := s.jobs.get(decodeJob(t, body).ID)
	if !ok {
		t.Fatal("admitted job is not in the job table")
	}
	return j
}

// await blocks until ch closes, failing the test after a generous
// (race-detector friendly) bound.
func await(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(90 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func TestAdmitQueueTakePreservesOrder(t *testing.T) {
	q := newAdmitQueue(8)
	mk := func(kind string) *job {
		return &job{Req: &QueryRequest{Kind: kind}}
	}
	jobs := []*job{mk(KindPath), mk(KindTree), mk(KindPath), mk(KindScanStat), mk(KindPath)}
	for _, j := range jobs {
		if !q.push(j) {
			t.Fatal("push rejected below capacity")
		}
	}
	got := q.take(func(j *job) bool { return j.Req.Kind == KindPath }, 2)
	if len(got) != 2 || got[0] != jobs[0] || got[1] != jobs[2] {
		t.Fatalf("take returned wrong jobs: %v", got)
	}
	if q.len() != 3 {
		t.Fatalf("queue length %d after take, want 3", q.len())
	}
	// Remaining admission order: tree, scanstat, path.
	for _, want := range []*job{jobs[1], jobs[3], jobs[4]} {
		j, ok := q.popWait()
		if !ok || j != want {
			t.Fatalf("popWait out of order: got %v want %v", j, want)
		}
	}
}

func TestAdmitQueueCloseWakesWaiters(t *testing.T) {
	q := newAdmitQueue(2)
	done := make(chan bool, 1)
	go func() {
		_, ok := q.popWait()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q.close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("popWait returned ok after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("popWait did not wake on close")
	}
	if q.push(&job{}) {
		t.Fatal("push accepted after close")
	}
}

// TestBatchAssemblyMatchesSolo: with one worker and a batch window,
// concurrent compatible queries of every kind, with heterogeneous k, are
// assembled into batches — and each lane's whole result (found, table,
// rounds, phases, totalPhases) equals what a server with batching off
// answers for the same request. n = 500 makes the comparison bite: a
// width planned for the lanes together would report more phases than a
// solo run (k = 9 paths: 2 phases at 3 lanes, 1 solo).
func TestBatchAssemblyMatchesSolo(t *testing.T) {
	batched := testServer(t, Config{Workers: 1, BatchWindow: 250 * time.Millisecond, BatchMaxLanes: 8})
	solo := testServer(t, Config{Workers: 1})
	const n = 500
	for _, s := range []*Server{batched, solo} {
		g := labeledGraph(n, 2*n, 6, 3)
		w := make([]int64, n)
		for i := range w {
			w[i] = int64(i % 3)
		}
		g.SetWeights(w)
		s.AddGraph("wl", g)
	}
	pathTemplate := func(k int) [][2]int32 {
		var e [][2]int32
		for i := 1; i < k; i++ {
			e = append(e, [2]int32{int32(i - 1), int32(i)})
		}
		return e
	}
	kinds := map[string][]QueryRequest{
		KindPath: {
			{K: 7, Seed: 10}, {K: 9, Seed: 11, Workers: 2}, {K: 8, Seed: 12}, {K: 9, Seed: 13, Rounds: 2},
		},
		KindTree: {
			{Template: pathTemplate(5), Seed: 20}, {Template: pathTemplate(8), Seed: 21},
			{Template: [][2]int32{{0, 1}, {1, 2}, {1, 3}, {3, 4}, {3, 5}, {5, 6}}, Seed: 22},
		},
		KindScanStat: {
			{K: 3, ZMax: 2, Seed: 30}, {K: 5, ZMax: 4, Seed: 31}, {K: 4, ZMax: 3, Seed: 32},
		},
		KindMotif: {
			{K: 5, Motif: map[string]int{"0": 1, "1": 1}, Seed: 40}, {K: 8, Motif: map[string]int{"2": 3}, Seed: 41},
			{K: 7, Seed: 42},
		},
	}
	post := func(s *Server, q QueryRequest) (*Result, bool) {
		resp, body := postJSON(t, "http://"+s.Addr()+"/v1/query", q)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s query seed %d: %d %s", q.Kind, q.Seed, resp.StatusCode, body)
			return nil, false
		}
		v := decodeJob(t, body)
		return v.Result, v.Status == StatusDone && v.Result != nil
	}
	var batches, lanes float64
	for _, kind := range []string{KindPath, KindTree, KindScanStat, KindMotif} {
		qs := kinds[kind]
		var wg sync.WaitGroup
		got := make([]*Result, len(qs))
		for i := range qs {
			qs[i].Graph, qs[i].Kind = "wl", kind
			if qs[i].Rounds == 0 {
				qs[i].Rounds = 1
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], _ = post(batched, qs[i])
			}(i)
		}
		wg.Wait()
		for i, q := range qs {
			want, ok := post(solo, q)
			if !ok || got[i] == nil {
				t.Fatalf("%s query %d did not finish (batched %+v, solo %+v)", kind, i, got[i], want)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("%s query %d (k=%d seed=%d): batched lane %+v, solo %+v", kind, i, q.K, q.Seed, got[i], want)
			}
		}
		_, metrics := getBody(t, "http://"+batched.Addr()+"/metrics")
		b := metricValue(t, string(metrics), "midas_serve_batches_total")
		l := metricValue(t, string(metrics), "midas_serve_batch_lanes_total")
		if b < batches+1 || l < lanes+2 {
			t.Fatalf("%s: batches %v → %v, lanes %v → %v: no batch of ≥ 2 lanes was assembled", kind, batches, b, lanes, l)
		}
		if occ := metricValue(t, string(metrics), "midas_serve_batch_occupancy_seconds_count"); occ != b {
			t.Fatalf("occupancy histogram count %v != batches %v", occ, b)
		}
		if cost := metricValue(t, string(metrics), "midas_serve_lane_cost_seconds_count"); cost != l {
			t.Fatalf("lane-cost histogram count %v != batch lanes %v", cost, l)
		}
		batches, lanes = b, l
	}
}

// TestBatchDistributedMatchesSolo: distributed path queries (ranks=2)
// that arrive together under a batch window are never assembled into a
// batch. Each runs solo through execute, so the distributed runner a
// clustered node installs sees every one of them (here it declines, and
// the in-process world answers), and each answer matches the library.
func TestBatchDistributedMatchesSolo(t *testing.T) {
	var runs atomic.Int32
	s := New(Config{Workers: 1, BatchWindow: 250 * time.Millisecond, BatchMaxLanes: 8})
	s.SetDistributedRunner(func(context.Context, *QueryRequest, *obs.Recorder, *Result, *QueryTrace) (bool, error) {
		runs.Add(1)
		return false, nil
	})
	g := graph.RandomGNM(60, 180, 1)
	s.AddGraph("g", g)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	base := "http://" + s.Addr()

	seeds := []uint64{20, 21, 22}
	var wg sync.WaitGroup
	results := make([]JobView, len(seeds))
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed uint64) {
			defer wg.Done()
			resp, body := postJSON(t, base+"/v1/query", QueryRequest{
				Graph: "g", Kind: KindPath, K: 5 + i, Seed: seed, Rounds: 1, Ranks: 2,
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query %d: %d %s", i, resp.StatusCode, body)
				return
			}
			results[i] = decodeJob(t, body)
		}(i, seed)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := runs.Load(); n != int32(len(seeds)) {
		t.Fatalf("distributed runner ran %d times for %d queries", n, len(seeds))
	}
	_, metrics := getBody(t, base+"/metrics")
	if b := metricValue(t, string(metrics), "midas_serve_batches_total"); b != 0 {
		t.Fatalf("batches counter %v for distributed queries, want 0", b)
	}
	for i, seed := range seeds {
		want, err := mld.DetectPath(g, 5+i, mld.Options{Seed: seed, Rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Result == nil || results[i].Result.Found != want {
			t.Fatalf("distributed query %d (k=%d): got %+v, library %v", i, 5+i, results[i].Result, want)
		}
	}
}

// TestBatchLaneCancelMasksLane: DELETE on one lane of an in-flight
// batch cancels only that lane — it resolves to its context error — and
// the other lane finishes with the correct answer.
func TestBatchLaneCancelMasksLane(t *testing.T) {
	logger, sig := newLogSignal("batch assembled")
	s := testServer(t, Config{Workers: 1, BatchWindow: 2 * time.Second, BatchMaxLanes: 2, Logger: logger})
	base := "http://" + s.Addr()
	s.AddGraph("big", graph.RandomGNM(200, 800, 6))
	gBig := graph.RandomGNM(200, 800, 6)

	// The batch closes when its two lanes are in: k=16 is the slow victim
	// lane, k=14 the survivor, which runs once the victim has stopped
	// (workers unset: the lanes take turns).
	victim := submitAsync(t, s, QueryRequest{Graph: "big", Kind: KindPath, K: 16, Seed: 30, Rounds: 1, N2: 32})
	survivor := submitAsync(t, s, QueryRequest{Graph: "big", Kind: KindPath, K: 14, Seed: 31, Rounds: 1, N2: 32})
	await(t, "the batch to assemble", sig[0])
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+victim.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	await(t, "the cancelled lane", victim.done)
	await(t, "the surviving lane", survivor.done)
	if vv := victim.view(); vv.Status != StatusCancelled || !errors.Is(victim.err, context.Canceled) {
		t.Fatalf("victim ended %q (%v), want cancelled with its context error", vv.Status, victim.err)
	}
	sv := survivor.view()
	if sv.Status != StatusDone || sv.Result == nil {
		t.Fatalf("survivor status %q (result %v), want done", sv.Status, sv.Result)
	}
	want, err := mld.DetectPath(gBig, 14, mld.Options{Seed: 31, Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sv.Result.Found != want {
		t.Fatalf("survivor answer %v, library %v", sv.Result.Found, want)
	}
	_, metrics := getBody(t, base+"/metrics")
	if c := metricValue(t, string(metrics), "midas_serve_cancelled_total"); c < 1 {
		t.Fatalf("cancelled counter %v, want >= 1", c)
	}
	if l := metricValue(t, string(metrics), "midas_serve_batch_lanes_total"); l != 2 {
		t.Fatalf("batch lanes %v, want the two queries in one batch", l)
	}
}

// TestBatchLaneAnswersWhenItFinishes: lanes of one assembled batch run
// side by side on the leader's workers, and each is answered the moment
// its own sweep ends — a small-k lane is done while its large-k
// batch-mate is still running.
func TestBatchLaneAnswersWhenItFinishes(t *testing.T) {
	s := testServer(t, Config{Workers: 1, BatchWindow: 2 * time.Second, BatchMaxLanes: 2})
	base := "http://" + s.Addr()
	s.AddGraph("big", graph.RandomGNM(300, 1200, 4))

	// Admitted first, so the large lane is also the first one started.
	large := submitAsync(t, s, QueryRequest{Graph: "big", Kind: KindPath, K: 18, Seed: 2, Rounds: 1, N2: 32, Workers: 2})
	resp, body := postJSON(t, base+"/v1/query", // returns when the small lane is terminal
		QueryRequest{Graph: "big", Kind: KindPath, K: 4, Seed: 3, Rounds: 1, Workers: 2})
	if small := decodeJob(t, body); resp.StatusCode != http.StatusOK || small.Status != StatusDone {
		t.Fatalf("small lane: %d %s", resp.StatusCode, body)
	}
	_, jb := getBody(t, base+"/v1/jobs/"+large.ID)
	if lv := decodeJob(t, jb); lv.Status != StatusRunning {
		t.Fatalf("large lane is %q when the small lane is done, want running", lv.Status)
	}
	_, metrics := getBody(t, base+"/metrics")
	if b, l := metricValue(t, string(metrics), "midas_serve_batches_total"), metricValue(t, string(metrics), "midas_serve_batch_lanes_total"); b != 1 || l != 2 {
		t.Fatalf("batches %v lanes %v, want both queries in one batch", b, l)
	}
	large.cancel()
	await(t, "the large lane to stop", large.done)
}

// TestBatchLaneWorkersStayPrivate: the workers a lane is given inside a
// batch (the leader's Workers split over the running lanes) are an
// execution detail — the job keeps its request and key as submitted, and
// a repeat with any Workers is a cache hit for the same answer.
func TestBatchLaneWorkersStayPrivate(t *testing.T) {
	s := testServer(t, Config{Workers: 1, BatchWindow: 2 * time.Second, BatchMaxLanes: 2})
	base := "http://" + s.Addr()
	qs := []QueryRequest{
		{Graph: "g", Kind: KindPath, K: 6, Seed: 70, Rounds: 1, Workers: 4},
		{Graph: "g", Kind: KindPath, K: 7, Seed: 71, Rounds: 1, Workers: 3},
	}
	jobs := []*job{submitAsync(t, s, qs[0]), submitAsync(t, s, qs[1])}
	for i, j := range jobs {
		await(t, "lane "+strconv.Itoa(i), j.done)
		if j.Req.Workers != qs[i].Workers {
			t.Fatalf("lane %d: job request now has workers %d, submitted %d", i, j.Req.Workers, qs[i].Workers)
		}
		if want := qs[i].key(j.digest); j.Key != want {
			t.Fatalf("lane %d: job key %q, want %q", i, j.Key, want)
		}
		first := j.view()
		if first.Status != StatusDone || first.Result == nil || first.Result.Cached {
			t.Fatalf("lane %d: %+v, want a freshly computed result", i, first)
		}
		repeat := qs[i]
		repeat.Workers = 1
		_, body := postJSON(t, base+"/v1/query", repeat)
		hit := decodeJob(t, body)
		if hit.Result == nil || !hit.Result.Cached {
			t.Fatalf("lane %d: repeat with other workers missed the cache: %s", i, body)
		}
		hit.Result.Cached = false
		if !reflect.DeepEqual(hit.Result, first.Result) {
			t.Fatalf("lane %d: cache hit %+v differs from the lane's answer %+v", i, hit.Result, first.Result)
		}
	}
	if v, code := fetchTrace(t, base, jobs[0].trace.view().ID); code != http.StatusOK || v.Disposition != DispBatchedLane || v.Lanes != 2 {
		t.Fatalf("lane 0 trace (%d): disposition %q lanes %d, want batched-lane/2", code, v.Disposition, v.Lanes)
	}
}

// TestBatchForcedDrainCancelsEveryLane: a drain window far shorter than
// the batch cancels all of its lanes, running or still waiting their
// turn, and Shutdown returns only after every lane has stopped.
func TestBatchForcedDrainCancelsEveryLane(t *testing.T) {
	logger, sig := newLogSignal("batch assembled")
	s := New(Config{Workers: 1, BatchWindow: 2 * time.Second, BatchMaxLanes: 3, Logger: logger})
	s.AddGraph("g", graph.RandomGNM(300, 1200, 6))
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	var jobs []*job
	for i := 0; i < 3; i++ { // two lanes run at once, the third waits
		jobs = append(jobs, submitAsync(t, s, QueryRequest{
			Graph: "g", Kind: KindPath, K: 18, Seed: uint64(80 + i), Rounds: 1, N2: 32, Workers: 2,
		}))
	}
	await(t, "the batch to assemble", sig[0])
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("forced drain reported a clean shutdown")
	}
	if n := s.inflight.Load(); n != 0 {
		t.Fatalf("Shutdown returned with %d executions in flight", n)
	}
	for i, j := range jobs {
		select {
		case <-j.done:
		default:
			t.Fatalf("lane %d still unresolved after Shutdown", i)
		}
		if v := j.view(); v.Status != StatusCancelled || !errors.Is(j.err, context.Canceled) {
			t.Fatalf("lane %d ended %q (%v), want cancelled", i, v.Status, j.err)
		}
	}
}

// TestBatchMixedKindsDoNotShare: queries of different kinds admitted
// together must not land in one batch — each kind gets its own
// execution, and all answers stay correct.
func TestBatchMixedKindsDoNotShare(t *testing.T) {
	s := testServer(t, Config{Workers: 1, BatchWindow: 150 * time.Millisecond, BatchMaxLanes: 8})
	base := "http://" + s.Addr()
	g := graph.RandomGNM(60, 180, 1)

	reqs := []QueryRequest{
		{Graph: "g", Kind: KindPath, K: 5, Seed: 40, Rounds: 1},
		{Graph: "g", Kind: KindTree, Template: [][2]int32{{0, 1}, {1, 2}, {1, 3}}, Seed: 41, Rounds: 1},
		{Graph: "g", Kind: KindPath, K: 6, Seed: 42, Rounds: 1},
	}
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
			tpl, terr := graph.NewTemplate(4, r.Template)
			if terr != nil {
				t.Fatal(terr)
			}
			want, err = mld.DetectTree(g, tpl, mld.Options{Seed: r.Seed, Rounds: 1})
		}
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Result == nil || results[i].Result.Found != want {
			t.Fatalf("query %d (%s): got %+v, library %v", i, r.Kind, results[i].Result, want)
		}
	}
}

// TestBatchWindowOffIsSolo: BatchWindow zero means no batch counters
// ever move, even under concurrent compatible load.
func TestBatchWindowOffIsSolo(t *testing.T) {
	s := testServer(t, Config{Workers: 2})
	base := "http://" + s.Addr()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJSON(t, base+"/v1/query", QueryRequest{
				Graph: "g", Kind: KindPath, K: 5, Seed: uint64(50 + i), Rounds: 1,
			})
		}(i)
	}
	wg.Wait()
	_, metrics := getBody(t, base+"/metrics")
	if b := metricValue(t, string(metrics), "midas_serve_batches_total"); b != 0 {
		t.Fatalf("batches counter %v with batching off, want 0", b)
	}
}

// TestBatchScanStat: scanstat lanes batch too, and tables match the
// library entry for entry.
func TestBatchScanStat(t *testing.T) {
	s := testServer(t, Config{Workers: 1, BatchWindow: 200 * time.Millisecond, BatchMaxLanes: 4})
	base := "http://" + s.Addr()
	n := 30
	g := graph.RandomGNM(n, 80, 9)
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(i % 3)
	}
	g.SetWeights(w)
	s.AddGraph("wg", g)

	type q struct {
		k    int
		zmax int64
		seed uint64
	}
	qs := []q{{3, 2, 60}, {4, 3, 61}, {3, 4, 62}}
	var wg sync.WaitGroup
	results := make([]JobView, len(qs))
	for i, qq := range qs {
		wg.Add(1)
		go func(i int, qq q) {
			defer wg.Done()
			resp, body := postJSON(t, base+"/v1/query", QueryRequest{
				Graph: "wg", Kind: KindScanStat, K: qq.k, ZMax: qq.zmax, Seed: qq.seed, Rounds: 1,
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("query %d: %d %s", i, resp.StatusCode, body)
				return
			}
			results[i] = decodeJob(t, body)
		}(i, qq)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, qq := range qs {
		want, err := mld.ScanTable(g, qq.k, qq.zmax, mld.Options{Seed: qq.seed, Rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Result == nil {
			t.Fatalf("query %d has no result", i)
		}
		got := results[i].Result.Table
		if len(got) != len(want) {
			t.Fatalf("query %d: table size %d, want %d", i, len(got), len(want))
		}
		for j := range want {
			for z := range want[j] {
				if got[j][z] != want[j][z] {
					t.Fatalf("query %d: table[%d][%d] = %v, want %v (k=%s)",
						i, j, z, got[j][z], want[j][z], strconv.Itoa(qq.k))
				}
			}
		}
	}
}
