package main

// The four workloads: frozen sizes, seed-derived query lists and the
// ground truth each query carries by construction.

import (
	"fmt"
	"time"

	"github.com/midas-hpc/midas/internal/rng"
	"github.com/midas-hpc/midas/internal/serve"
)

// params are the workload sizes. frozen is what BENCHMARK.json measures;
// it was tuned on the reference host (2 cores, 4 MiB L2) so that one pass
// of every workload lasts about 3 s. toy is the smoke-test size.
type params struct {
	soloN, soloK, soloMain int // solo-deep: soloMain yes-queries + 1 twin query per pass

	wideN, wideAttach    int
	widePathK, wideScanK int
	wideMotifK           int
	wideZMax             int64
	wideTemplate         [][2]int32
	wideRounds           int   // round-robin laps per pass (4 queries each)
	wideTwinAt           []int // query slots that go to the twin

	burstN         int
	burstKs        [3]int
	burstMain      int // bursts on the main graph per pass (+ 1 twin burst)
	burstWindow    time.Duration
	burstPollEvery time.Duration

	distN, distK, distQueries int
	distTwinAt                int

	gfBigBytes int // gf kernels' beyond-L2 operand size
}

var frozen = params{
	soloN: 750, soloK: 11, soloMain: 5,

	wideN: 10000, wideAttach: 5, widePathK: 7, wideScanK: 4, wideMotifK: 6, wideZMax: 8,
	wideTemplate: caterpillar7, wideRounds: 4, wideTwinAt: []int{6, 13},

	burstN: 1000, burstKs: [3]int{7, 8, 9}, burstMain: 4,
	burstWindow: 10 * time.Millisecond, burstPollEvery: 5 * time.Millisecond,

	distN: 4000, distK: 8, distQueries: 8, distTwinAt: 5,

	gfBigBytes: 64 << 20,
}

var toy = params{
	soloN: 120, soloK: 5, soloMain: 2,

	wideN: 300, wideAttach: 3, widePathK: 5, wideScanK: 3, wideMotifK: 5, wideZMax: 4,
	wideTemplate: [][2]int32{{0, 1}, {1, 2}, {2, 3}, {1, 4}}, wideRounds: 1, wideTwinAt: []int{2},

	burstN: 200, burstKs: [3]int{3, 4, 5}, burstMain: 1,
	burstWindow: 10 * time.Millisecond, burstPollEvery: 5 * time.Millisecond,

	distN: 300, distK: 5, distQueries: 4, distTwinAt: 3,

	gfBigBytes: 1 << 20,
}

// Burst composition (burst-batch): 16 submissions per burst.
const (
	burstSize  = 16
	burstFresh = 12 // slots 0..11: fresh seeds, become batch lanes
	// slots 12,13 repeat slots 0 and 5 of the same burst (singleflight join);
	// slots 14,15 repeat slots 1 and 6 of the previous burst on the same
	// graph (result-cache hit).
)

var workloadNames = []string{"solo-deep", "kinds-wide", "burst-batch", "dist-r2"}

// query is one detection request plus its ground truth.
type query struct {
	req        serve.QueryRequest
	yes        bool   // the planted structure exists in req.Graph
	cell       [2]int // scanstat: the planted (size, weight) table cell
	wantCached bool   // burst slots 14,15: the answer must come from the cache
}

// op is one closed-loop step: a single waited query, or a burst of
// wait:false submissions polled to completion.
type op struct{ queries []query }

func (o op) burst() bool { return len(o.queries) > 1 }

// workload is one benchmark workload, generated from a run seed.
type workload struct {
	name        string
	executors   int           // serve.Config.Workers (concurrent query executions)
	batchWindow time.Duration // serve.Config.BatchWindow
	clients     int           // client connections the generator keeps busy
	pollEvery   time.Duration // burst-batch: pause after a non-terminal poll
	main, twin  *instance
	shapes      []query // one query per distinct shape on the main graph (cold start)
	template    []query // one pass's ops, flattened, with Seed still zero
	opSize      int     // queries per op (1, or burstSize)
	tableBytes  int64   // computed DP table bytes of the widest query
	seed        uint64
}

// daemonBatchWindow is midas-serve's -batch-window default.
const daemonBatchWindow = 2 * time.Millisecond

func newWorkload(name string, seed uint64, p params) (*workload, error) {
	r := rng.New(rng.Hash2(seed, 0x6d696461, uint64(len(name))))
	w := &workload{name: name, seed: seed, executors: 2, batchWindow: daemonBatchWindow, clients: 1, opSize: 1}
	switch name {
	case "solo-deep":
		w.genSolo(r, p)
	case "kinds-wide":
		w.genWide(r, p)
	case "burst-batch":
		w.genBurst(r, p)
	case "dist-r2":
		w.genDist(r, p)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// slabBytes is the computed size of one DP slab: n vertices × N2
// iterations × 2-byte GF(2^16) elements. The path DP keeps three (base,
// previous level, current level).
func slabBytes(n, lanes int) int64 { return int64(n) * 128 * 2 * int64(lanes) }

func (w *workload) genSolo(r *rng.Rand, p params) {
	m := nLogN(p.soloN)
	s := newEdgeSet(m)
	plantPath(s, distinct(r, p.soloN, p.soloK))
	s.fill(randomEdges(r, p.soloN, m), m)
	w.main = &instance{name: "main", n: p.soloN, edges: s.edges}
	w.main.build()
	w.twin = cliqueTwin("twin", p.soloN, p.soloK-1, false, false)

	q := query{req: serve.QueryRequest{Graph: "main", Kind: serve.KindPath, K: p.soloK, Workers: 1}, yes: true}
	w.shapes = []query{q}
	for i := 0; i < p.soloMain; i++ {
		w.template = append(w.template, q)
	}
	no := q
	no.req.Graph, no.yes = "twin", false
	w.template = append(w.template, no)
	w.tableBytes = 3 * slabBytes(p.soloN, 1)
}

func (w *workload) genWide(r *rng.Rand, p params) {
	base := baEdges(r, p.wideN, p.wideAttach)
	m := len(base)
	labels := randomLabels(r, p.wideN)
	weights := make([]int64, p.wideN)
	for i := range weights {
		weights[i] = int64(r.Intn(3))
	}
	tplK := len(p.wideTemplate) + 1
	vs := distinct(r, p.wideN, p.widePathK+tplK+p.wideScanK+p.wideMotifK)
	s := newEdgeSet(m)
	plantPath(s, vs[:p.widePathK])
	vs = vs[p.widePathK:]
	plantTemplate(s, p.wideTemplate, vs[:tplK])
	vs = vs[tplK:]
	// Heavy cluster: wideScanK connected vertices of equal weight.
	each := p.wideZMax / int64(p.wideScanK)
	plantPath(s, vs[:p.wideScanK])
	for _, v := range vs[:p.wideScanK] {
		weights[v] = each
	}
	cell := [2]int{p.wideScanK, int(each) * p.wideScanK}
	vs = vs[p.wideScanK:]
	plantMotif(s, labels, vs[:p.wideMotifK])
	s.fill(base, m)
	w.main = &instance{name: "main", n: p.wideN, edges: s.edges, weights: weights, labels: labels}
	w.main.build()
	smallest := min(p.widePathK, tplK, p.wideMotifK+1)
	w.twin = cliqueTwin("twin", p.wideN, smallest-1, true, true)

	mk := func(kind string) query {
		q := query{req: serve.QueryRequest{Graph: "main", Kind: kind, Workers: 2}, yes: true}
		switch kind {
		case serve.KindPath:
			q.req.K = p.widePathK
		case serve.KindTree:
			q.req.Template = p.wideTemplate
		case serve.KindScanStat:
			q.req.K, q.req.ZMax, q.cell = p.wideScanK, p.wideZMax, cell
		case serve.KindMotif:
			q.req.K, q.req.Motif = p.wideMotifK, motifCounts
		}
		return q
	}
	kinds := []string{serve.KindPath, serve.KindTree, serve.KindScanStat, serve.KindMotif}
	for _, kind := range kinds {
		w.shapes = append(w.shapes, mk(kind))
	}
	for i := 0; i < p.wideRounds*len(kinds); i++ {
		q := mk(kinds[i%len(kinds)])
		for _, at := range p.wideTwinAt {
			if i == at {
				q.req.Graph, q.yes = "twin", false
			}
		}
		w.template = append(w.template, q)
	}
	w.tableBytes = 3 * slabBytes(p.wideN, 1)
}

func (w *workload) genBurst(r *rng.Rand, p params) {
	// One executor: with the daemon's two, two batch leaders race for the
	// admission queue and the lane split differs from run to run. The
	// sweep still gets both cores through the queries' workers:2.
	w.executors = 1
	w.batchWindow = p.burstWindow
	w.clients = 2
	w.pollEvery = p.burstPollEvery
	w.opSize = burstSize
	m := nLogN(p.burstN)
	s := newEdgeSet(m)
	plantPath(s, distinct(r, p.burstN, p.burstKs[2]))
	s.fill(randomEdges(r, p.burstN, m), m)
	w.main = &instance{name: "main", n: p.burstN, edges: s.edges}
	w.main.build()
	w.twin = cliqueTwin("twin", p.burstN, p.burstKs[0]-1, false, false)

	mk := func(graph string, k int) query {
		return query{req: serve.QueryRequest{Graph: graph, Kind: serve.KindPath, K: k, Workers: 2}, yes: graph == "main"}
	}
	for _, k := range p.burstKs {
		w.shapes = append(w.shapes, mk("main", k))
	}
	for b := 0; b <= p.burstMain; b++ {
		graph := "main"
		if b == p.burstMain {
			graph = "twin"
		}
		for slot := 0; slot < burstSize; slot++ {
			q := mk(graph, p.burstKs[slot%3])
			q.wantCached = slot >= 14 // passOps points the repeats at their originals
			w.template = append(w.template, q)
		}
	}
	w.tableBytes = 3 * slabBytes(p.burstN, burstFresh)
}

func (w *workload) genDist(r *rng.Rand, p params) {
	w.batchWindow = 0 // batching off
	m := nLogN(p.distN)
	labels := randomLabels(r, p.distN)
	s := newEdgeSet(m)
	vs := distinct(r, p.distN, 2*p.distK)
	plantPath(s, vs[:p.distK])
	plantMotif(s, labels, vs[p.distK:])
	s.fill(randomEdges(r, p.distN, m), m)
	w.main = &instance{name: "main", n: p.distN, edges: s.edges, labels: labels}
	w.main.build()
	w.twin = cliqueTwin("twin", p.distN, p.distK-1, true, false)

	mk := func(kind string) query {
		q := query{req: serve.QueryRequest{
			Graph: "main", Kind: kind, K: p.distK, Ranks: 2, N1: 2, Scheme: "bfs",
		}, yes: true}
		if kind == serve.KindMotif {
			q.req.Motif = motifCounts
		}
		return q
	}
	kinds := []string{serve.KindPath, serve.KindMotif}
	w.shapes = []query{mk(kinds[0]), mk(kinds[1])}
	for i := 0; i < p.distQueries; i++ {
		q := mk(kinds[i%2])
		if i == p.distTwinAt {
			q.req.Graph, q.yes = "twin", false
		}
		w.template = append(w.template, q)
	}
	w.tableBytes = 3 * slabBytes(p.distN, 1)
}

// Seed spaces: detection seeds are hashed from (run seed, space, pass,
// slot), so no two queries of a run share a cache key unless the workload
// repeats one on purpose.
const (
	spaceSetup  = 1
	spacePass   = 2
	spaceLadder = 3
)

func (w *workload) querySeed(space, pass, slot int) uint64 {
	return rng.Hash3(w.seed, uint64(space), uint64(pass), uint64(slot)) | 1
}

// setupQueries are the cold start's first queries, one per shape.
// attempt numbers the cold start.
func (w *workload) setupQueries(attempt int) []query {
	out := make([]query, len(w.shapes))
	for i, q := range w.shapes {
		q.req.Seed = w.querySeed(spaceSetup, attempt, i)
		out[i] = q
	}
	return out
}

// passOps returns pass number pass's ops. Every pass is the same list of
// shapes with fresh seeds (a repeated seed would be answered by the result
// cache, not the DP). prelude is the kept cold start's setupQueries: the
// very first burst's cache-hit slots repeat them.
func (w *workload) passOps(space, pass int, prelude []query) []op {
	qs := make([]query, len(w.template))
	for i, q := range w.template {
		q.req.Seed = w.querySeed(space, pass, i)
		qs[i] = q
	}
	var ops []op
	for lo := 0; lo < len(qs); lo += w.opSize {
		ops = append(ops, op{queries: qs[lo : lo+w.opSize]})
	}
	if w.opSize == 1 {
		return ops
	}
	// Wire the bursts' repeats. fresh is the (k, seed) of a fresh slot of
	// any pass, recomputed rather than remembered.
	fresh := func(pass, burst, slot int) (int, uint64) {
		i := burst*burstSize + slot
		return w.template[i].req.K, w.querySeed(space, pass, i)
	}
	twin := len(ops) - 1
	for b, o := range ops {
		o.queries[12].req = o.queries[0].req
		o.queries[13].req = o.queries[5].req
		for i, slot := range []int{14, 15} {
			src := 1 + 5*i
			q := &o.queries[slot]
			switch {
			case b == twin && pass == 0:
				// The twin graph has no earlier burst: repeat this burst's
				// own slot, which joins its flight instead of the cache.
				q.req.K, q.req.Seed = fresh(pass, b, src)
				q.wantCached = false
			case b == twin:
				q.req.K, q.req.Seed = fresh(pass-1, b, src)
			case b > 0:
				q.req.K, q.req.Seed = fresh(pass, b-1, src)
			case pass > 0:
				q.req.K, q.req.Seed = fresh(pass-1, twin-1, src)
			default:
				q.req.K, q.req.Seed = prelude[i].req.K, prelude[i].req.Seed
			}
		}
	}
	return ops
}
