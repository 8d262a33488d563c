package main

// The depth ladder: one query replayed at each depth of the stack —
// direct library call → in-process serve handler → loopback socket — so a
// layer's self time is its depth minus the one below. The same seed means
// identical work and a byte-identical answer at every depth; the served
// depths spell the default epsilon differently so that each is a distinct
// result-cache key for the same computation.

import (
	"fmt"
	"strconv"
	"time"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/core"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/partition"
	"github.com/midas-hpc/midas/internal/serve"
)

// partSeedSalt is serve's derivation of the partition seed from the query
// seed (internal/serve/lease.go); the direct calls partition identically.
const partSeedSalt = 0x70a3d70a3d70a3d7

func (w *workload) graphOf(name string) *graph.Graph {
	if name == w.twin.name {
		return w.twin.g
	}
	return w.main.g
}

func templateOf(edges [][2]int32) (*graph.Template, error) {
	k := int32(0)
	for _, e := range edges {
		k = max(k, e[0], e[1])
	}
	return graph.NewTemplate(int(k)+1, edges)
}

func motifSpecOf(req *serve.QueryRequest) (*mld.MotifSpec, error) {
	counts := make(map[int32]int, len(req.Motif))
	for cs, m := range req.Motif {
		c, err := strconv.ParseInt(cs, 10, 32)
		if err != nil {
			return nil, err
		}
		counts[int32(c)] = m
	}
	return &mld.MotifSpec{K: req.K, Counts: counts}, nil
}

// direct answers q by calling the library the way serve would: mld for a
// sequential query, core on a local world for ranks > 1. The second
// duration is the partitioning a distributed query needs first.
func direct(w *workload, q query, opt mld.Options) (answer, time.Duration, time.Duration, error) {
	g, req := w.graphOf(q.req.Graph), &q.req
	if req.Ranks > 1 {
		return directDist(g, req, comm.CostModel{}, nil)
	}
	opt.Seed, opt.Workers = req.Seed, req.Workers
	var a answer
	var err error
	start := time.Now()
	switch req.Kind {
	case serve.KindPath:
		a.Found, err = mld.DetectPath(g, req.K, opt)
	case serve.KindTree:
		var tpl *graph.Template
		if tpl, err = templateOf(req.Template); err == nil {
			a.Found, err = mld.DetectTree(g, tpl, opt)
		}
	case serve.KindScanStat:
		a.Table, err = mld.ScanTable(g, req.K, req.ZMax, opt)
	case serve.KindMotif:
		var spec *mld.MotifSpec
		if spec, err = motifSpecOf(req); err == nil {
			a.Found, err = mld.DetectMotif(g, spec, opt)
		}
	default:
		err = fmt.Errorf("unknown kind %q", req.Kind)
	}
	return a, time.Since(start), 0, err
}

// directDist runs a distributed query on an in-process world. inspect,
// when non-nil, receives the world's communicators after the run.
func directDist(g *graph.Graph, req *serve.QueryRequest, model comm.CostModel, inspect func([]*comm.Comm)) (answer, time.Duration, time.Duration, error) {
	pstart := time.Now()
	part, err := partition.ByScheme(partition.Scheme(req.Scheme), g, req.N1, req.Seed^partSeedSalt)
	if err != nil {
		return answer{}, 0, 0, err
	}
	for i := 0; i < part.Parts; i++ {
		part.Members(i) // materialize before the ranks share the pointer
	}
	partTime := time.Since(pstart)
	cfg := core.Config{
		K: req.K, N1: req.N1, Seed: req.Seed, Scheme: partition.Scheme(req.Scheme),
		Part: part, NoTiming: inspect == nil,
	}
	var a answer
	start := time.Now()
	comms, err := comm.RunLocalInspect(req.Ranks, model, func(c *comm.Comm) error {
		if inspect != nil {
			c.EnableObs()
		}
		var found bool
		var err error
		switch req.Kind {
		case serve.KindPath:
			found, err = core.RunPath(c, g, cfg)
		case serve.KindMotif:
			var spec *mld.MotifSpec
			if spec, err = motifSpecOf(req); err == nil {
				found, err = core.RunMotif(c, g, spec, cfg)
			}
		default:
			err = fmt.Errorf("no distributed direct call for kind %q", req.Kind)
		}
		if c.Rank() == 0 {
			a.Found = found
		}
		return err
	})
	wall := time.Since(start)
	if err == nil && inspect != nil {
		inspect(comms)
	}
	return a, wall, partTime, err
}

// directBurst answers a burst's fresh lanes with one batched sweep, the
// way serve's batch leader would.
func directBurst(w *workload, o op, opt mld.Options) ([]answer, time.Duration, error) {
	lanes := make([]mld.BatchLane, burstFresh)
	for i := range lanes {
		lanes[i] = mld.BatchLane{K: o.queries[i].req.K, Seed: o.queries[i].req.Seed}
	}
	opt.Workers = o.queries[0].req.Workers
	start := time.Now()
	res, err := mld.DetectPathBatch(w.graphOf(o.queries[0].req.Graph), lanes, opt)
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	out := make([]answer, len(res))
	for i, lr := range res {
		if lr.Err != nil {
			return nil, 0, lr.Err
		}
		out[i] = answer{Found: lr.Found}
	}
	return out, wall, nil
}

// ladderRow is one op's times at each depth, in milliseconds.
type ladderRow struct {
	Op          string  `json:"op"`
	PartitionMS float64 `json:"partition_ms,omitempty"`
	DirectMS    float64 `json:"direct_ms"`  // mld or core
	HandlerMS   float64 `json:"handler_ms"` // + serve, in process
	SocketMS    float64 `json:"socket_ms"`  // + loopback HTTP
	ServeSelfMS float64 `json:"serve_self_ms"`
	SockSelfMS  float64 `json:"socket_self_ms"`
	Identical   bool    `json:"identical"` // same answer at every depth
}

// ladderReport is what layers.<workload>.json carries.
type ladderReport struct {
	Rows []ladderRow `json:"rows"`
	// Best has one row per distinct op: the fastest time seen at each depth
	// and the self times between them. Single replays differ by the host's
	// noise, which on a shared host exceeds serve's self time; the fastest
	// of each depth is the comparison to read.
	Best []ladderRow `json:"best"`
	// DirectShare is the median over Best of direct ÷ socket time: the
	// share of a served query spent in the library, by the ladder.
	DirectShare float64 `json:"direct_share"`
	// Checks: no self time in Best negative beyond the pass spread, and
	// the server's own dp share within a tenth of the ladder's.
	SelfTimesNonNegative bool `json:"self_times_non_negative"`
	DPShareAgrees        bool `json:"dp_share_agrees"`
}

// withEpsilon spells the default epsilon explicitly: same rounds, same
// answer, different cache key.
func withEpsilon(o op, eps float64) op {
	qs := make([]query, len(o.queries))
	for i, q := range o.queries {
		q.req.Epsilon = eps
		qs[i] = q
	}
	return op{queries: qs}
}

// runLadder replays the first ops of one extra pass at each depth, for
// about budget seconds (at least two ops, at most eight).
func runLadder(r *runner, budget float64, parent int) (ladderReport, error) {
	w := r.w
	var ops []op
	if w.opSize == 1 {
		ops = w.passOps(spaceLadder, 0, r.prelude)
		ops = ops[:min(8, len(ops))]
	} else {
		// One main-graph burst per sample, without its cache-hit slots:
		// their originals belong to passes the ladder does not replay.
		for i := 0; i < 8; i++ {
			o := w.passOps(spaceLadder, i, r.prelude)[0]
			o.queries = o.queries[:14]
			ops = append(ops, o)
		}
	}
	inproc := r.t.inProcess()
	opt := mld.Options{Arena: mld.NewArena()}
	lsp := r.tr.begin("ladder", parent, "")
	defer r.tr.end(lsp)
	var rep ladderReport
	began := time.Now()
	for i, o := range ops {
		if i >= 2 && time.Since(began).Seconds() > budget {
			break
		}
		row := ladderRow{Op: fmt.Sprintf("%s k=%d on %s", o.queries[0].req.Kind, o.queries[0].req.K, o.queries[0].req.Graph)}
		osp := r.tr.begin(fmt.Sprintf("ladder[%d]", i), lsp, "")
		var want []answer
		sp := r.tr.begin("direct", osp, "")
		if o.burst() {
			row.Op = "burst of " + row.Op
			as, d, err := directBurst(w, o, opt)
			if err != nil {
				return rep, err
			}
			want, row.DirectMS = as, ms(d)
		} else {
			a, d, pd, err := direct(w, o.queries[0], opt)
			if err != nil {
				return rep, err
			}
			want, row.DirectMS, row.PartitionMS = []answer{a}, ms(d), ms(pd)
		}
		r.tr.end(sp)
		row.Identical = true
		for depth, t := range []*target{inproc, r.t} {
			name := []string{"handler", "socket"}[depth]
			od := withEpsilon(o, []float64{0.05, 0.050000001}[depth])
			sp := r.tr.begin(name, osp, "")
			start := time.Now()
			var outs []outcome
			if o.burst() {
				outs, _ = t.burst(od, w.pollEvery, func(int) string { return "" })
			} else {
				outs = []outcome{t.query(od.queries[0], "")}
			}
			took := ms(time.Since(start))
			r.tr.end(sp)
			for j, out := range outs {
				r.check(fmt.Sprintf("ladder %d %s slot %d", i, name, j), od.queries[j], out)
				if j < len(want) && (out.err != nil || out.ans.sig() != want[j].sig()) {
					row.Identical = false
				}
			}
			if depth == 0 {
				row.HandlerMS = took
			} else {
				row.SocketMS = took
			}
		}
		r.tr.end(osp)
		if !row.Identical {
			r.fail("ladder %d (%s): the answer differs between depths", i, row.Op)
		}
		row.ServeSelfMS = row.HandlerMS - row.DirectMS - row.PartitionMS
		row.SockSelfMS = row.SocketMS - row.HandlerMS
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finish fills the report's summary and checks once the run knows its
// pass spread and the server's own dp share.
func (rep *ladderReport) finish(passSpread, dpShare float64) {
	at := map[string]int{}
	for _, row := range rep.Rows {
		i, seen := at[row.Op]
		if !seen {
			at[row.Op] = len(rep.Best)
			rep.Best = append(rep.Best, row)
			continue
		}
		b := &rep.Best[i]
		b.PartitionMS = min(b.PartitionMS, row.PartitionMS)
		b.DirectMS = min(b.DirectMS, row.DirectMS)
		b.HandlerMS = min(b.HandlerMS, row.HandlerMS)
		b.SocketMS = min(b.SocketMS, row.SocketMS)
		b.Identical = b.Identical && row.Identical
	}
	var shares []float64
	rep.SelfTimesNonNegative = true
	for i := range rep.Best {
		b := &rep.Best[i]
		b.ServeSelfMS = b.HandlerMS - b.DirectMS - b.PartitionMS
		b.SockSelfMS = b.SocketMS - b.HandlerMS
		shares = append(shares, b.DirectMS/b.SocketMS)
		slack := passSpread * b.SocketMS
		if b.ServeSelfMS < -slack || b.SockSelfMS < -slack {
			rep.SelfTimesNonNegative = false
		}
	}
	rep.DirectShare = quantile(shares, 0.5)
	rep.DPShareAgrees = dpShare > 0 && rep.DirectShare/dpShare > 0.9 && rep.DirectShare/dpShare < 1.1
}
