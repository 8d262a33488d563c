package main

// One run of one workload: cold starts → identical passes for the time
// budget → drain → verify. Statistics are best-of-passes per step; see
// README.md ("Why best-of") for the reasoning and the measurements behind it.

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/midas-hpc/midas/internal/obs"
	"github.com/midas-hpc/midas/internal/serve"
)

const (
	coldStarts = 4 // setup_s is the best of these
	minPasses  = 3 // passes a run makes however slow the host
)

// opResult is one closed-loop step of a pass: a waited query or a burst.
type opResult struct {
	calibMS   float64 // host calibration just before the step
	wall, cpu time.Duration
	polls     int
}

// passResult is one pass as measured from the client.
type passResult struct {
	traced  bool
	ops     []opResult
	queries []query
	outs    []outcome
}

// correct counts the pass's answers that match ground truth.
func (p *passResult) correct() int {
	n := 0
	for i, o := range p.outs {
		if o.err == nil {
			if ok, _ := p.queries[i].correct(o.ans); ok {
				n++
			}
		}
	}
	return n
}

func (p *passResult) wall() (d time.Duration) {
	for _, o := range p.ops {
		d += o.wall
	}
	return d
}

func (p *passResult) calibs() []float64 {
	out := make([]float64, len(p.ops))
	for i, o := range p.ops {
		out[i] = o.calibMS
	}
	return out
}

func (p *passResult) polls() (n int) {
	for _, o := range p.ops {
		n += o.polls
	}
	return n
}

// p50 is the pass's own median latency (the per-pass view; the reported
// query_p50_ms is summary.p50).
func (p *passResult) p50() float64 {
	var lat []float64
	for _, o := range p.outs {
		if o.err == nil {
			lat = append(lat, o.ms)
		}
	}
	return quantile(lat, 0.5)
}

// quantile is the linear-interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// summary condenses passes of identical work into best-of numbers. Every
// pass runs the same list of steps, so position i of each pass is the same
// work (seeds aside); a busy neighbour only ever adds time, so the fastest
// repetition of each position is the best estimate of what the code costs.
type summary struct {
	// p50 is the median over the query list of each query's fastest
	// repetition, in ms; byKind restricts the list to one query kind.
	p50    float64
	byKind map[string]float64
	// rate is correct answers per pass ÷ the sum over steps of each step's
	// fastest wall time; cpuPerQuery likewise with process CPU time.
	rate, cpuPerQuery float64
}

func summarize(passes []passResult) summary {
	first := &passes[0]
	bestLat := make([]float64, len(first.outs))
	correct := first.correct()
	for i := range bestLat {
		bestLat[i] = -1
	}
	bestWall := make([]time.Duration, len(first.ops))
	bestCPU := make([]time.Duration, len(first.ops))
	for pi := range passes {
		p := &passes[pi]
		correct = min(correct, p.correct())
		for i, o := range p.outs {
			if o.err == nil && (bestLat[i] < 0 || o.ms < bestLat[i]) {
				bestLat[i] = o.ms
			}
		}
		for i, o := range p.ops {
			if pi == 0 || o.wall < bestWall[i] {
				bestWall[i] = o.wall
			}
			if pi == 0 || o.cpu < bestCPU[i] {
				bestCPU[i] = o.cpu
			}
		}
	}
	s := summary{byKind: map[string]float64{}}
	var all []float64
	kinds := map[string][]float64{}
	for i, v := range bestLat {
		if v >= 0 {
			all = append(all, v)
			kind := first.queries[i].req.Kind
			kinds[kind] = append(kinds[kind], v)
		}
	}
	s.p50 = quantile(all, 0.5)
	for kind, v := range kinds {
		s.byKind[kind] = quantile(v, 0.5)
	}
	var wall, cpu time.Duration
	for i := range bestWall {
		wall += bestWall[i]
		cpu += bestCPU[i]
	}
	s.rate = float64(correct) / wall.Seconds()
	s.cpuPerQuery = ms(cpu) / float64(max(correct, 1))
	return s
}

// runner drives one workload against one server.
type runner struct {
	w       *workload
	t       *target
	tr      *tracer
	prelude []query

	attempted, failed int
	falsePositives    int
	problems          []string // first few failure descriptions
}

func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// check scores one outcome against its query's ground truth.
func (r *runner) check(where string, q query, o outcome) {
	r.attempted++
	if o.err != nil {
		r.fail("%s: %s k=%d on %s: %v", where, q.req.Kind, q.req.K, q.req.Graph, o.err)
		return
	}
	ok, fp := q.correct(o.ans)
	if fp {
		r.falsePositives++
	}
	switch {
	case !ok:
		r.fail("%s: %s k=%d on %s: answer %s contradicts ground truth (yes=%v)", where, q.req.Kind, q.req.K, q.req.Graph, o.ans.sig(), q.yes)
	case q.wantCached && !o.cached:
		r.fail("%s: %s k=%d seed %d: repeat of a finished query was not served from the cache", where, q.req.Kind, q.req.K, q.req.Seed)
	}
}

// pass runs pass number n and scores its answers.
func (r *runner) pass(n int, traced bool, parent int) passResult {
	ops := r.w.passOps(spacePass, n, r.prelude)
	res := passResult{traced: traced}
	tr := r.tr
	if !traced {
		tr = nil
	}
	psp := tr.begin(fmt.Sprintf("pass[%d]", n), parent, "")
	slot := 0
	for _, o := range ops {
		id := func(i int) string {
			if !traced {
				return ""
			}
			return fmt.Sprintf("%s-p%d-q%d", r.w.name, n, slot+i)
		}
		var outs []outcome
		or := opResult{calibMS: calibMS()}
		cpu0, start := cpuTime(), time.Now()
		if o.burst() {
			sp := tr.begin("burst", psp, "")
			outs, or.polls = r.t.burst(o, r.w.pollEvery, id)
			tr.end(sp)
		} else {
			sp := tr.begin(fmt.Sprintf("query[%d]", slot), psp, id(0))
			outs = []outcome{r.t.query(o.queries[0], id(0))}
			tr.end(sp)
		}
		or.wall, or.cpu = time.Since(start), cpuTime()-cpu0
		res.ops = append(res.ops, or)
		res.queries = append(res.queries, o.queries...)
		res.outs = append(res.outs, outs...)
		slot += len(o.queries)
	}
	tr.end(psp)
	for i, o := range res.outs {
		r.check(fmt.Sprintf("pass %d slot %d", n, i), res.queries[i], o)
	}
	return res
}

// verifyAcrossPasses fails every slot whose answer differs between passes:
// the passes repeat one list of shapes against one ground truth.
func (r *runner) verifyAcrossPasses(passes []passResult) {
	for i := range passes[0].outs {
		first := passes[0].outs[i]
		for p := 1; p < len(passes); p++ {
			o := passes[p].outs[i]
			if first.err == nil && o.err == nil && o.ans.sig() != first.ans.sig() {
				r.fail("slot %d: pass %d answered %s, pass 0 answered %s", i, p, o.ans.sig(), first.ans.sig())
			}
		}
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what the flags select.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	params  params
	workdir string
	outdir  string
}

// assertSized enforces the load-sizing guard: the generator never asks
// for more client connections or busy goroutines than the host has cores.
func assertSized(w *workload) error {
	nproc := runtime.NumCPU()
	busy := 0
	for _, q := range w.template {
		busy = max(busy, q.req.Workers, q.req.Ranks)
	}
	if w.clients > nproc || busy > nproc {
		return fmt.Errorf("workload %s wants %d connections and %d busy goroutines; host has %d cores", w.name, w.clients, busy, nproc)
	}
	if runtime.GOMAXPROCS(0) != nproc {
		return fmt.Errorf("GOMAXPROCS=%d, want the default %d", runtime.GOMAXPROCS(0), nproc)
	}
	return nil
}

// runWorkload performs one run, prints its report and returns its result.
func runWorkload(name string, cfg runConfig) (result, error) {
	tr := (*tracer)(nil)
	if cfg.trace {
		tr = &tracer{}
	}
	root := tr.begin("run", -1, "")
	ssp := tr.begin("setup", root, "")
	gsp := tr.begin("graph.gen", ssp, "")
	w, err := newWorkload(name, cfg.seed, cfg.params)
	tr.end(gsp)
	if err != nil {
		return result{}, err
	}
	if err := assertSized(w); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return result{}, err
	}

	r := &runner{w: w, tr: tr}
	// Cold starts. The traced run needs only the one it draws.
	starts := coldStarts
	if cfg.trace {
		starts = 1
	}
	setupS := 0.0
	for a := 0; a < starts; a++ {
		firsts := w.setupQueries(a)
		t, secs, outs, err := coldStart(w, cfg.workdir, firsts, tr, ssp)
		if err != nil {
			return result{}, fmt.Errorf("cold start %d: %w", a, err)
		}
		for i, o := range outs {
			r.check(fmt.Sprintf("cold start %d shape %d", a, i), firsts[i], o)
		}
		if a == 0 || secs < setupS {
			setupS = secs
		}
		if a < starts-1 {
			if err := t.close(); err != nil {
				r.fail("cold start %d: drain: %v", a, err)
			}
			// A cold start must not inherit the previous one's garbage, or
			// peak_rss_mb would measure the collector's pacing.
			runtime.GC()
			continue
		}
		r.t, r.prelude = t, firsts
	}
	tr.end(ssp)
	defer r.t.close() //nolint:errcheck // error paths only; the success path checks the drain below

	// Passes, for the time budget. The traced run spends half of it here
	// and alternates untraced and traced passes so the two can be compared.
	before := r.t.srv.Recorder().Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	need := minPasses
	if cfg.trace {
		budget /= 2
		need = 4
	}
	var passes []passResult
	began := time.Now()
	for n := 0; ; n++ {
		if n >= need && time.Since(began)+time.Since(began)/time.Duration(2*n) > budget {
			break
		}
		passes = append(passes, r.pass(n, cfg.trace && n%2 == 1, root))
	}
	passWall := time.Since(began)
	after := r.t.srv.Recorder().Snapshot()
	runtime.ReadMemStats(&ms1)
	r.verifyAcrossPasses(passes)
	all := summarize(passes)

	queries := 0
	var calib []float64
	fmt.Printf("workload %s: %d passes of %d queries in %.1f s after %d cold starts\n",
		w.name, len(passes), len(passes[0].outs), passWall.Seconds(), starts)
	for i := range passes {
		p := &passes[i]
		queries += len(p.outs)
		calib = append(calib, p.calibs()...)
		fmt.Printf("  pass %d: %.2f s  p50 %.1f ms  calib %.2f ms  traced=%v\n", i, p.wall().Seconds(), p.p50(), quantile(p.calibs(), 0.5), p.traced)
		// The poll-rate guard of burst-batch.
		if rate := float64(p.polls()) / p.wall().Seconds(); rate >= 250 {
			r.fail("pass %d polled at %.0f req/s, over the 250 req/s guard", i, rate)
		}
	}

	// Host-noise correction. On a shared host a busy neighbour slows whole
	// runs, fastest repetitions included, and the run's typical calibration
	// time rises with them while its fastest stays put (README, "Why
	// quiet-equivalent"). Scaling by fastest ÷ median calibration estimates
	// what the run would have measured on the same host left alone.
	quiet := quantile(calib, 0) / quantile(calib, 0.5)
	fmt.Printf("  host calibration: median %.3f ms, fastest %.3f ms over %d steps: quiet-equivalent factor %.3f\n",
		quantile(calib, 0.5), quantile(calib, 0), len(calib), quiet)
	fmt.Printf("  as measured: query_p50_ms %.2f  queries_per_s %.3f  cpu_ms_per_query %.2f\n", all.p50, all.rate, all.cpuPerQuery)
	res := result{Metrics: map[string]metric{}}
	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		res.Metrics["setup_s"] = metric{setupS, "s"}
		res.Metrics["query_p50_ms"] = metric{all.p50 * quiet, "ms"}
		res.Metrics["queries_per_s"] = metric{all.rate / quiet, "1/s"}
		res.Metrics["cpu_ms_per_query"] = metric{all.cpuPerQuery * quiet, "ms"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	} else {
		lm := res.Metrics
		clientMetrics(lm, passes, all, passWall)
		lm["proc.gc_pause_ms"] = metric{float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6, "ms"}
		lm["proc.heap_alloc_mb_per_query"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / float64(queries), "MB"}
		lm["host.calib_ms"] = metric{quantile(calib, 0.5), "ms"}
		lm["host.nproc"] = metric{float64(runtime.NumCPU()), "count"}
		lm["host.l2_kib"] = metric{float64(cacheKiB(2)), "KiB"}

		debug, err := debugRequests(r.t)
		if err != nil {
			return result{}, err
		}
		serveMetrics(lm, debug, before, after, w)
		ladder, err := runLadder(r, cfg.seconds/4, root)
		if err != nil {
			return result{}, err
		}
		ladder.finish(lm["client.pass_spread"].Value, lm["serve.dp_share"].Value)
		if err := layerMetrics(lm, r, cfg, root); err != nil {
			return result{}, err
		}
		tr.end(root)
		if err := os.MkdirAll(cfg.outdir, 0o755); err != nil {
			return result{}, err
		}
		if err := tr.writeChrome(fmt.Sprintf("%s/trace.%s.json", cfg.outdir, w.name)); err != nil {
			return result{}, err
		}
		if err := writeJSON(fmt.Sprintf("%s/layers.%s.json", cfg.outdir, w.name), map[string]any{
			"workload": w.name, "seed": cfg.seed, "metrics": lm, "ladder": ladder,
		}); err != nil {
			return result{}, err
		}
	}
	if err := r.t.close(); err != nil {
		r.fail("drain: %v", err)
	}
	res.Attempted, res.Failed, res.Correct = r.attempted, r.failed, r.failed == 0
	for _, p := range r.problems {
		fmt.Printf("  FAILED %s\n", p)
	}
	if r.falsePositives > 0 {
		return res, fmt.Errorf("%d false positives: a \"yes\" on an instance built to have none breaks the one-sided error contract", r.falsePositives)
	}
	return res, nil
}

// clientMetrics are the per-layer numbers the client side of the passes
// gives: tails, per-kind medians, the noise flags and the cost of tracing.
func clientMetrics(lm map[string]metric, passes []passResult, all summary, passWall time.Duration) {
	var lat, passP50 []float64
	var untraced, traced []passResult
	polls := 0
	for i := range passes {
		p := &passes[i]
		for _, o := range p.outs {
			if o.err == nil {
				lat = append(lat, o.ms)
			}
		}
		passP50 = append(passP50, p.p50())
		polls += p.polls()
		if p.traced {
			traced = append(traced, *p)
		} else {
			untraced = append(untraced, *p)
		}
	}
	lm["client.query_p90_ms"] = metric{quantile(lat, 0.9), "ms"}
	for _, kind := range []string{serve.KindPath, serve.KindTree, serve.KindScanStat, serve.KindMotif} {
		lm["client.p50_ms."+kind] = metric{all.byKind[kind], "ms"} // 0: the workload has no such query
	}
	sort.Float64s(passP50)
	lm["client.pass_spread"] = metric{(passP50[len(passP50)-1] - passP50[0]) / passP50[0], "ratio"}
	quantum := 0.0
	if polls > 0 {
		quantum = ms(passWall) / float64(polls)
	}
	lm["client.poll_quantum_ms"] = metric{quantum, "ms"}
	lm["trace.overhead_frac"] = metric{summarize(traced).p50/summarize(untraced).p50 - 1, "ratio"}
}

// serveMetrics reads the workload server's own public surfaces: its
// recorder (counter deltas over the passes, histograms since start) and
// GET /v1/debug/requests (flight recorder and live snapshot).
func serveMetrics(lm map[string]metric, debug serve.DebugRequests, before, after obs.Snapshot, w *workload) {
	delta := func(c obs.Counter) float64 { return float64(after.Counter(c) - before.Counter(c)) }
	batches := delta(obs.ServeBatches)
	lanes := 0.0
	if batches > 0 {
		lanes = delta(obs.ServeBatchLanes) / batches
	}
	lm["serve.batch_lanes_mean"] = metric{lanes, "count"}
	lm["serve.batches"] = metric{batches, "count"}
	lm["serve.cache_hits"] = metric{delta(obs.ServeCacheHits), "count"}
	lm["serve.singleflight_joins"] = metric{delta(obs.ServeSingleflightShared), "count"}
	lm["serve.rejected"] = metric{delta(obs.ServeRejected), "count"}
	lm["serve.queue_wait_p50_ms"] = metric{after.Hist(obs.HistServeQueueWait.String()).Quantile(0.5) * 1e3, "ms"}
	lm["serve.batch_assembly_ms"] = metric{after.Hist(obs.HistServeBatchAssembly.String()).Mean() * 1e3, "ms"}
	lm["serve.dp_share"] = metric{dpShare(debug), "ratio"}
	lm["mld.table_mb"] = metric{float64(w.tableBytes) / (1 << 20), "MB"}
	lm["mld.arena_retained_mb"] = metric{float64(debug.Snapshot.ArenaRetainedBytes) / (1 << 20), "MB"}
}
