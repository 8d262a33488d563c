package main

// Per-layer metrics: every module of the repository timed from outside,
// through its public functions, at the sizes the workloads use. The layer
// names are the module names. These run once in the traced run; none has
// a bound.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/midas-hpc/midas/internal/cluster"
	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
	"github.com/midas-hpc/midas/internal/partition"
	"github.com/midas-hpc/midas/internal/serve"
	"github.com/midas-hpc/midas/internal/store"
)

// timed returns fn's wall time in milliseconds.
func timed(fn func()) float64 {
	start := time.Now()
	fn()
	return msSince(start)
}

// bestOf is the fastest of n runs of fn, in milliseconds.
func bestOf(n int, fn func()) float64 {
	best := timed(fn)
	for i := 1; i < n; i++ {
		best = min(best, timed(fn))
	}
	return best
}

// layerMetrics measures every layer below the client. Fixtures are the
// four workloads' own graphs and query shapes, whichever workload runs.
func layerMetrics(lm map[string]metric, r *runner, cfg runConfig, parent int) error {
	sp := r.tr.begin("layers", parent, "")
	defer r.tr.end(sp)
	fixtures := map[string]*workload{}
	for _, name := range workloadNames {
		if name == r.w.name {
			fixtures[name] = r.w
			continue
		}
		w, err := newWorkload(name, cfg.seed, cfg.params)
		if err != nil {
			return err
		}
		fixtures[name] = w
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"gf", func() error { gfMetrics(lm, cfg.params.gfBigBytes); return nil }},
		{"mld", func() error { return mldMetrics(lm, fixtures) }},
		{"core+comm", func() error { return coreMetrics(lm, fixtures["dist-r2"]) }},
		{"comm", func() error { return commMetrics(lm) }},
		{"partition", func() error { partitionMetrics(lm, fixtures["dist-r2"]); return nil }},
		{"graph+store", func() error { return storageMetrics(lm, fixtures["kinds-wide"], cfg.workdir) }},
		{"serve", func() error { return serveLadderMetrics(lm, r) }},
		{"cluster", func() error { return clusterMetrics(lm, fixtures["dist-r2"], cfg.workdir) }},
		{"obs", func() error { return obsMetrics(lm, fixtures["solo-deep"]) }},
	}
	for _, s := range steps {
		ssp := r.tr.begin("layer."+s.name, sp, "")
		err := s.fn()
		r.tr.end(ssp)
		if err != nil {
			return fmt.Errorf("layer %s: %w", s.name, err)
		}
	}
	return nil
}

// gfMetrics streams the slice kernels over a cache-resident buffer
// (256 KiB per operand) and over one beyond L2 (bigBytes per operand;
// the host's L3 may still hold it — see README). GB/s counts source bytes.
func gfMetrics(lm map[string]metric, bigBytes int) {
	fill16 := func(n int) []gf.Elem {
		s := make([]gf.Elem, n)
		for i := range s {
			s[i] = gf.NonZero(uint64(i)*0x9E3779B97F4A7C15 + 1)
		}
		return s
	}
	gbps := func(bytes, reps int, fn func()) metric {
		fn() // warm tables and pages
		best := bestOf(3, func() {
			for i := 0; i < reps; i++ {
				fn()
			}
		})
		return metric{float64(bytes) * float64(reps) / (best / 1e3) / 1e9, "GB/s"}
	}
	c := gf.NonZero(42)
	const l2 = 256 << 10
	src, aux, dst := fill16(l2/2), fill16(l2/2), make([]gf.Elem, l2/2)
	src8, dst8 := make([]uint8, l2), make([]uint8, l2)
	for i := range src8 {
		src8[i] = gf.NonZero8(uint64(i) + 1)
	}
	lm["gf.mulslice16_l2_gbps"] = gbps(l2, 64, func() { gf.MulSlice16(dst, src, c) })
	lm["gf.mulslice8_l2_gbps"] = gbps(l2, 64, func() { gf.MulSlice8(dst8, src8, 0x35) })
	lm["gf.hadamard16_l2_gbps"] = gbps(l2, 64, func() { gf.HadamardInto(dst, src, aux) })

	big, bigDst := fill16(bigBytes/2), make([]gf.Elem, bigBytes/2)
	lm["gf.mulslice16_big_gbps"] = gbps(bigBytes, 1, func() { gf.MulSlice16(bigDst, big, c) })
	big8, bigDst8 := make([]uint8, bigBytes), make([]uint8, bigBytes)
	for i := range big8 {
		big8[i] = uint8(i) | 1
	}
	lm["gf.mulslice8_big_gbps"] = gbps(bigBytes, 1, func() { gf.MulSlice8(bigDst8, big8, 0x35) })

	const builds = 2000
	var keep *gf.MulTable
	best := bestOf(3, func() {
		for i := 0; i < builds; i++ {
			keep = gf.NewMulTable(gf.Elem(i) | 1)
		}
	})
	_ = keep
	lm["gf.multable_build_ns"] = metric{best * 1e6 / builds, "ns"}
}

// mldMetrics calls the sequential engine directly with each workload's
// parameters, a recorder attached as serve attaches one.
func mldMetrics(lm map[string]metric, fx map[string]*workload) error {
	arena := mld.NewArena()
	// run is the faster of two direct calls; counters come from the second.
	run := func(w *workload, q query, workers int, rec *obs.Recorder) (float64, error) {
		q.req.Seed = w.querySeed(spaceLadder, 1, workers)
		q.req.Workers = workers
		_, first, _, err := direct(w, q, mld.Options{Arena: arena})
		if err != nil {
			return 0, err
		}
		_, second, _, err := direct(w, q, mld.Options{Arena: arena, Obs: rec})
		return ms(min(first, second)), err
	}
	solo := fx["solo-deep"]
	q := solo.shapes[0]
	rec := obs.NewRecorder(0, nil)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pathMS, err := run(solo, q, 1, rec)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	snap := rec.Snapshot()
	rounds := snap.Counter(obs.Rounds)
	cells := float64(rounds) * float64(uint64(1)<<uint(q.req.K)) * float64(q.req.K) * 2 * float64(solo.main.g.NumEdges())
	lm["mld.path_ms"] = metric{pathMS, "ms"}
	lm["mld.path_ns_per_cell"] = metric{pathMS * 1e6 / cells, "ns"}
	lm["mld.dp_ops"] = metric{float64(snap.Counter(obs.DPOps)), "count"}
	lm["mld.phases"] = metric{float64(snap.Counter(obs.Phases)), "count"}
	lm["mld.rounds"] = metric{float64(rounds), "count"}
	lm["mld.cells_skipped"] = metric{float64(snap.Counter(obs.CellsSkipped)), "count"}
	lm["mld.allocs_per_query"] = metric{float64(m1.Mallocs - m0.Mallocs), "count"}

	wide := fx["kinds-wide"]
	two, err := run(wide, wide.shapes[0], 2, obs.NewRecorder(0, nil))
	if err != nil {
		return err
	}
	one, err := run(wide, wide.shapes[0], 1, obs.NewRecorder(0, nil))
	if err != nil {
		return err
	}
	lm["mld.par2_speedup"] = metric{one / two, "ratio"}
	for i, name := range []string{"mld.tree_ms", "mld.scan_ms", "mld.motif_ms"} {
		v, err := run(wide, wide.shapes[i+1], 2, obs.NewRecorder(0, nil))
		if err != nil {
			return err
		}
		lm[name] = metric{v, "ms"}
	}

	// Sixteen lanes, solo and as one batched sweep.
	burst := fx["burst-batch"]
	lanes := make([]mld.BatchLane, burstSize)
	for i := range lanes {
		lanes[i] = mld.BatchLane{K: burst.shapes[i%len(burst.shapes)].req.K, Seed: burst.querySeed(spaceLadder, 2, i)}
	}
	opt := mld.Options{Arena: arena, Workers: 2}
	var firstErr error
	soloMS := timed(func() {
		for _, l := range lanes {
			o := opt
			o.Seed = l.Seed
			if _, err := mld.DetectPath(burst.main.g, l.K, o); err != nil {
				firstErr = err
			}
		}
	})
	batchMS := timed(func() {
		if _, err := mld.DetectPathBatch(burst.main.g, lanes, opt); err != nil {
			firstErr = err
		}
	})
	lm["mld.batch16_ms"] = metric{batchMS, "ms"}
	lm["mld.batch16_speedup"] = metric{soloMS / batchMS, "ratio"}
	return firstErr
}

// coreMetrics runs the distributed engine directly on a 2-rank local
// world, once untimed-clock for wall time and once under the α–β cost
// model for the modeled makespan and the communication telemetry.
func coreMetrics(lm map[string]metric, w *workload) error {
	pathQ, motifQ := w.shapes[0], w.shapes[1]
	pathQ.req.Seed, motifQ.req.Seed = w.querySeed(spaceLadder, 3, 0), w.querySeed(spaceLadder, 3, 1)
	_, pathWall, _, err := directDist(w.main.g, &pathQ.req, comm.CostModel{}, nil)
	if err != nil {
		return err
	}
	_, motifWall, _, err := directDist(w.main.g, &motifQ.req, comm.CostModel{}, nil)
	if err != nil {
		return err
	}
	seq := timed(func() {
		_, err = mld.DetectPath(w.main.g, pathQ.req.K, mld.Options{Seed: pathQ.req.Seed})
	})
	if err != nil {
		return err
	}
	lm["core.path_r2_ms"] = metric{ms(pathWall), "ms"}
	lm["core.motif_r2_ms"] = metric{ms(motifWall), "ms"}
	lm["core.r2_over_seq"] = metric{ms(pathWall) / seq, "ratio"}

	var snaps []obs.Snapshot
	var modeled float64
	_, wall, _, err := directDist(w.main.g, &pathQ.req, comm.DefaultCostModel(), func(comms []*comm.Comm) {
		snaps, modeled = comm.Snapshots(comms), comm.MaxClock(comms)
	})
	if err != nil {
		return err
	}
	tot := obs.Totals(snaps...)
	lm["core.model_over_measured"] = metric{modeled / wall.Seconds(), "ratio"}
	// Waits are on the ranks' virtual α–β clocks, summed over both ranks.
	lm["comm.recv_wait_ms_per_query"] = metric{tot.Hist(obs.HistRecvWait.String()).Sum * 1e3, "ms"}
	lm["comm.barrier_wait_ms_per_query"] = metric{tot.Hist(obs.HistBarrierWait.String()).Sum * 1e3, "ms"}
	lm["comm.msgs_per_query"] = metric{float64(tot.MsgsSent), "count"}
	lm["comm.bytes_per_query"] = metric{float64(tot.BytesSent), "count"}
	return nil
}

// commMetrics times the collectives the distributed engine leans on, on
// the local transport and over loopback TCP.
func commMetrics(lm map[string]metric) error {
	const reduces, sends, payload = 2000, 64, 1 << 20
	var allreduceUS, mbps float64
	err := comm.RunLocal(2, comm.CostModel{}, func(c *comm.Comm) error {
		word := []uint64{uint64(c.Rank())}
		c.AllreduceXor(word)
		t := timed(func() {
			for i := 0; i < reduces; i++ {
				c.AllreduceXor(word)
			}
		})
		c.Barrier()
		var st float64
		if c.Rank() == 0 {
			st = timed(func() {
				for i := 0; i < sends; i++ {
					c.Send(1, 7, make([]byte, payload))
				}
				c.Recv(1, 8)
			})
			allreduceUS, mbps = t*1e3/reduces, float64(sends*payload)/(st/1e3)/1e6
		} else {
			for i := 0; i < sends; i++ {
				c.Recv(0, 7)
			}
			c.Send(0, 8, nil)
		}
		return nil
	})
	if err != nil {
		return err
	}
	lm["comm.allreduce_local_us"] = metric{allreduceUS, "us"}
	lm["comm.sendrecv_local_mbps"] = metric{mbps, "MB/s"}

	// Two ranks of this process over real loopback sockets.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	root := ln.Addr().String()
	ln.Close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	var tcpUS float64
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := comm.ConnectTCP(rank, 2, root, comm.CostModel{})
			if err != nil {
				errs[rank] = err
				return
			}
			defer c.Close()
			word := []uint64{uint64(rank)}
			c.AllreduceXor(word)
			t := timed(func() {
				for i := 0; i < reduces/4; i++ {
					c.AllreduceXor(word)
				}
			})
			if rank == 0 {
				tcpUS = t * 1e3 / (reduces / 4)
			}
			c.Barrier()
		}(rank)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	lm["comm.allreduce_tcp_us"] = metric{tcpUS, "us"}
	return nil
}

func partitionMetrics(lm map[string]metric, w *workload) {
	g := w.main.g
	var bfs *partition.Partition
	lm["partition.bfs_ms"] = metric{bestOf(3, func() { bfs = partition.BFSGrow(g, 2, w.seed) }), "ms"}
	lm["partition.block_ms"] = metric{bestOf(3, func() { partition.Block(g, 2) }), "ms"}
	m := bfs.ComputeMetrics(g)
	lm["partition.edge_cut_frac"] = metric{float64(m.Cut) / float64(g.NumEdges()), "ratio"}
	lm["partition.imbalance"] = metric{float64(m.MaxLoad) * float64(m.Parts) / float64(g.NumVertices()), "ratio"}
}

// storageMetrics covers graph construction and the v2 format, then the
// store's write, cold-open and partition-artifact paths, on the wide graph.
func storageMetrics(lm map[string]metric, w *workload, workdir string) error {
	in := w.main
	var g *graph.Graph
	lm["graph.from_edges_ms"] = metric{bestOf(3, func() { g = graph.FromEdges(in.n, in.edges) }), "ms"}
	g.SetWeights(in.weights)
	g.SetLabels(in.labels)
	lm["graph.digest_ms"] = metric{bestOf(3, func() { g.Digest() }), "ms"}
	var buf bytes.Buffer
	var err error
	lm["graph.write_v2_ms"] = metric{timed(func() { err = graph.WriteBinaryV2(&buf, g) }), "ms"}
	if err != nil {
		return err
	}
	lm["graph.map_v2_us"] = metric{1e3 * bestOf(3, func() { _, _, err = graph.MapBinaryV2(buf.Bytes()) }), "us"}
	if err != nil {
		return err
	}
	lm["store.file_mb"] = metric{float64(graph.V2FileSize(g)) / (1 << 20), "MB"}

	dir, err := os.MkdirTemp(workdir, "layer-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	var digest uint64
	lm["store.put_ms"] = metric{timed(func() { digest, _, err = st.Put(g) }), "ms"}
	if err != nil {
		return err
	}
	part := partition.BFSGrow(g, 2, w.seed)
	key := store.PartKey{Scheme: partition.SchemeBFSGrow, Parts: 2, Seed: w.seed}
	lm["store.part_put_ms"] = metric{timed(func() { err = st.PutPartition(digest, key, part) }), "ms"}
	if err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	var h *store.Handle
	lm["store.cold_open_ms"] = metric{timed(func() {
		if st, err = store.Open(dir, store.Options{}); err == nil {
			h, err = st.Acquire(digest)
		}
	}), "ms"}
	if err != nil {
		return err
	}
	defer st.Close()
	defer h.Close()
	const acquires = 1000
	lm["store.warm_acquire_ns"] = metric{1e6 / acquires * timed(func() {
		for i := 0; i < acquires; i++ {
			if wh, werr := st.Acquire(digest); werr == nil {
				wh.Close()
			} else {
				err = werr
			}
		}
	}), "ns"}
	if err != nil {
		return err
	}
	lm["store.part_load_ms"] = metric{timed(func() { _, err = st.GetPartition(digest, key) }), "ms"}
	return err
}

// serveLadderMetrics isolates serve's fixed per-query cost with a query
// whose DP is a few microseconds (k = 2 on the workload's main graph), at
// the three ladder depths; then a cache hit and an ingest.
func serveLadderMetrics(lm map[string]metric, r *runner) error {
	const reps = 48
	w, inproc := r.w, r.t.inProcess()
	tiny := query{req: serve.QueryRequest{Graph: "main", Kind: serve.KindPath, K: 2, Workers: 1}, yes: true}
	opt := mld.Options{Arena: mld.NewArena()}
	var direct1, handler, socket, hits []float64
	for i := 0; i < reps; i++ {
		tiny.req.Seed = w.querySeed(spaceLadder, 4, i)
		_, d, _, err := direct(w, tiny, opt)
		if err != nil {
			return err
		}
		direct1 = append(direct1, ms(d))
		for depth, t := range []*target{inproc, r.t} {
			q := tiny
			q.req.Epsilon = []float64{0.05, 0.050000001}[depth]
			out := t.query(q, "")
			r.check("serve ladder", q, out)
			if depth == 0 {
				handler = append(handler, out.ms)
			} else {
				socket = append(socket, out.ms)
			}
		}
	}
	tiny.req.Epsilon = 0.050000001
	for i := 0; i < reps; i++ {
		out := r.t.query(tiny, "")
		if out.err == nil && !out.cached {
			out.err = fmt.Errorf("repeat of a finished query was not served from the cache")
		}
		r.check("cache hit", tiny, out)
		hits = append(hits, out.ms)
	}
	h, s := quantile(handler, 0.5), quantile(socket, 0.5)
	lm["serve.handler_overhead_us"] = metric{(h - quantile(direct1, 0.5)) * 1e3, "us"}
	lm["serve.socket_overhead_us"] = metric{(s - h) * 1e3, "us"}
	lm["serve.cache_hit_us"] = metric{quantile(hits, 0.5) * 1e3, "us"}

	// Ingest: an inline 20 000-edge graph, written through to the store.
	in := &instance{name: "ingest", n: 4000, edges: graph.RandomGNM(4000, 20000, w.seed).Edges()}
	in.build()
	var err error
	lm["serve.ingest_ms"] = metric{timed(func() { err = r.t.postGraph(in) }), "ms"}
	return err
}

// debugRequests fetches the server's flight recorder and live snapshot.
func debugRequests(t *target) (serve.DebugRequests, error) {
	var out serve.DebugRequests
	code, data, err := call(t.a, http.MethodGet, t.base+"/v1/debug/requests", nil, "")
	if err != nil {
		return out, err
	}
	if code != http.StatusOK {
		return out, fmt.Errorf("GET /v1/debug/requests: %d: %s", code, data)
	}
	return out, json.Unmarshal(data, &out)
}

// dpShare is the server's own account of where served time went: over the
// flight recorder's recent queries that ran a DP, dp time ÷ total time.
func dpShare(d serve.DebugRequests) float64 {
	var dp, total float64
	for _, v := range d.Recent {
		if v.DPMillis > 0 {
			dp += v.DPMillis
			total += v.TotalMillis
		}
	}
	if total == 0 {
		return 0
	}
	return dp / total
}

// clusterMetrics boots a two-node in-process fleet with replication 1,
// loads a graph through the non-owner (forcing a store handoff onto the
// owner) and compares a warm-cache query on the owner with the same query
// through the front.
func clusterMetrics(lm map[string]metric, w *workload, workdir string) error {
	var nodes []*cluster.Node
	var dirs []string
	defer func() {
		for _, n := range nodes {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			n.Shutdown(ctx) //nolint:errcheck // idle fleet; nothing to drain
			cancel()
		}
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	var addrs []string
	for i := 0; i < 2; i++ {
		dir, err := os.MkdirTemp(workdir, "cluster-*")
		if err != nil {
			return err
		}
		dirs = append(dirs, dir)
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return err
		}
		n, err := cluster.New(cluster.Config{Serve: serve.Config{Store: st}, Replicas: 1})
		if err != nil {
			return err
		}
		if err := n.Start("127.0.0.1:0"); err != nil {
			return err
		}
		nodes = append(nodes, n)
		addrs = append(addrs, n.Advertise())
	}
	for _, n := range nodes {
		if err := n.SetPeers(addrs); err != nil {
			return err
		}
	}
	owner, front := nodes[0], nodes[1]
	if cluster.PlacementOwners(w.main.g.Digest(), addrs, 1)[0] != addrs[0] {
		owner, front = front, owner
	}
	ft := &target{base: "http://" + front.Advertise(), a: oneConn()}
	ot := &target{base: "http://" + owner.Advertise(), a: oneConn()}
	defer ft.a.CloseIdleConnections()
	defer ot.a.CloseIdleConnections()
	if err := ft.postGraph(w.main); err != nil {
		return err
	}
	snap := owner.Serve().Recorder().Snapshot()
	if snap.Counter(obs.ClusterHandoffs) < 1 {
		return fmt.Errorf("loading through the front did not hand the shard to its owner")
	}
	lm["cluster.handoff_ms"] = metric{snap.Hist(obs.HistClusterHandoff.String()).Mean() * 1e3, "ms"}

	q := query{req: serve.QueryRequest{Graph: "main", Kind: serve.KindPath, K: 3, Seed: w.seed | 1}, yes: true}
	if out := ot.query(q, ""); out.err != nil {
		return out.err
	}
	const reps = 32
	var local, hop []float64
	for i := 0; i < reps; i++ {
		for _, leg := range []struct {
			t   *target
			dst *[]float64
		}{{ot, &local}, {ft, &hop}} {
			out := leg.t.query(q, "")
			if out.err != nil {
				return out.err
			}
			*leg.dst = append(*leg.dst, out.ms)
		}
	}
	lm["cluster.forward_hop_us"] = metric{(quantile(hop, 0.5) - quantile(local, 0.5)) * 1e3, "us"}
	return nil
}

// obsMetrics prices an attached recorder on the sequential path sweep
// (three levels shallower than solo-deep, so both sides fit the budget).
func obsMetrics(lm map[string]metric, w *workload) error {
	k := max(w.shapes[0].req.K-3, 2)
	arena := mld.NewArena()
	var err error
	run := func(rec *obs.Recorder) float64 {
		return bestOf(3, func() {
			if _, rerr := mld.DetectPath(w.main.g, k, mld.Options{Seed: w.seed | 1, Arena: arena, Obs: rec}); rerr != nil {
				err = rerr
			}
		})
	}
	without := run(nil)
	with := run(obs.NewRecorder(0, nil))
	lm["obs.recorder_overhead_frac"] = metric{with/without - 1, "ratio"}
	return err
}
