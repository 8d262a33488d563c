package core

// Batched multi-query distributed runs: one collective schedule — one
// partition, one phase/step plan, one halo exchange per (phase, level)
// and one two-word sync per step — services up to mld.MaxBatchLanes
// k-path queries at once. The per-message α cost and the barrier
// schedule amortize over the lanes, which is where the near-linear
// per-query cost drop of docs/BATCHING.md comes from; per-lane bytes
// and DP compute still scale with occupancy.
//
// Lane semantics: every lane keeps its own Assignment, so its answer
// is the sequential DetectPath answer of the same seeding
// (TestRunPathBatchMatchesSequential); shallower lanes fold their
// totals from the Gray prefix of the deepest lane's sweep, and a
// cancelled lane is retired
// collectively (its bit rides the per-step all-reduce bitmask, so all
// ranks mask it out at the same step and the halo widths never
// diverge).

import (
	"context"
	"fmt"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
)

// BatchSpec is the query batch handed to RunPathBatch: the lanes to
// answer in one collective run. Per-run knobs (N1, N2, partition,
// context) stay in Config; per-query knobs (seed, epsilon, rounds,
// cancellation) ride the lanes.
type BatchSpec struct {
	Lanes []mld.BatchLane
}

// batchLane is one lane's per-rank state.
type batchLane struct {
	mld.BatchLane
	idx         int
	k           int
	iters       uint64
	roundsTotal int
	a           *mld.Assignment
	off         int
	nb          int
	total       gf.Elem
	found       bool
	done        bool
	err         error
	roundsRun   int64
	phases      int64
}

func (st *batchLane) ctxErr() error {
	if st.Ctx == nil {
		return nil
	}
	return st.Ctx.Err()
}

// laneSpan is a contiguous element range of a vertex row covering
// adjacent live lanes — the unit of fused copies and of halo packing.
type laneSpan struct{ lo, hi int }

func mergeSpans(lanes []*batchLane) []laneSpan {
	out := make([]laneSpan, 0, len(lanes))
	for _, st := range lanes {
		lo, hi := st.off, st.off+st.nb
		if n := len(out); n > 0 && out[n-1].hi == lo {
			out[n-1].hi = hi
		} else {
			out = append(out, laneSpan{lo, hi})
		}
	}
	return out
}

// RunPathBatch executes distributed k-path detection for every lane of
// the batch in one collective run. Every rank of the world calls it
// with the same graph, config, and lanes; all ranks return the same
// per-lane answers, each identical to a solo RunPath with the lane's
// seeding. Config.K and the per-query seeding fields are ignored (the
// lanes carry them); Config.Ctx still cancels the whole batch.
func RunPathBatch(world *comm.Comm, g *graph.Graph, cfg Config, spec BatchSpec) ([]mld.LaneResult, error) {
	lanes := spec.Lanes
	if len(lanes) == 0 {
		return nil, nil
	}
	if len(lanes) > mld.MaxBatchLanes {
		return nil, fmt.Errorf("core: batch of %d lanes exceeds mld.MaxBatchLanes=%d", len(lanes), mld.MaxBatchLanes)
	}
	res := make([]mld.LaneResult, len(lanes))
	n := g.NumVertices()
	sts := make([]*batchLane, 0, len(lanes))
	kmax, maxRounds := 0, 0
	for i, l := range lanes {
		if err := mld.ValidateK(l.K); err != nil {
			return nil, err
		}
		if l.K > n {
			continue // Found=false, no work; identical on every rank
		}
		lo := cfg.mldOptions()
		lo.Seed, lo.Epsilon, lo.Rounds = l.Seed, l.Epsilon, l.Rounds
		st := &batchLane{BatchLane: l, idx: i, k: l.K, iters: uint64(1) << uint(l.K), roundsTotal: lo.RoundsFor(l.K)}
		sts = append(sts, st)
		if l.K > kmax {
			kmax = l.K
		}
		if st.roundsTotal > maxRounds {
			maxRounds = st.roundsTotal
		}
	}
	if len(sts) == 0 {
		return res, nil
	}
	cfg.K = kmax
	p, err := buildPlan(world, g, cfg, len(sts), mld.PathSlabs)
	if err != nil {
		return nil, err
	}
	n2 := p.cfg.N2

	var batchErr error
	for round := 0; round < maxRounds && batchErr == nil; round++ {
		if err := p.syncLanes(sts); err != nil {
			batchErr = err
			break
		}
		var active []*batchLane
		for _, st := range sts {
			if !st.done && round < st.roundsTotal {
				active = append(active, st)
			}
		}
		if len(active) == 0 {
			break
		}
		p.span(obs.RoundName, round, "round")
		p.rec.Add(obs.Rounds, int64(len(active)))
		for _, st := range active {
			st.a = mld.NewPathAssignment(n, st.k, st.Seed, round)
			st.total = 0
			st.roundsRun++
		}
		err := p.batchPathRoundLocal(active, n2)
		if err != nil {
			p.endSpan()
			batchErr = err
			break
		}
		// One all-reduce of the whole lane vector decides every lane's
		// round on every rank identically (Algorithm 2's MPIReduce,
		// amortized over the batch).
		vec := make([]uint64, len(active))
		for i, st := range active {
			vec[i] = uint64(st.total)
		}
		global := p.world.AllreduceXor(vec)
		p.endSpan()
		for i, st := range active {
			if st.done {
				continue // retired collectively mid-round
			}
			if global[i] != 0 {
				st.found, st.done = true, true
			} else if round+1 >= st.roundsTotal {
				st.done = true
			}
		}
	}
	if batchErr != nil {
		for _, st := range sts {
			if !st.done {
				st.done, st.err = true, batchErr
			}
		}
	}
	for _, st := range sts {
		res[st.idx] = mld.LaneResult{
			Found: st.found, Rounds: st.roundsRun, Phases: st.phases,
			TotalPhases: mld.PlannedPhases(st.k, n2),
			Err:         st.err,
		}
	}
	return res, batchErr
}

// syncLanes is the batch protocol's collective synchronization point:
// a two-word OR all-reduce carrying [batch-wide cancel flag, per-lane
// cancel bitmask]. Every rank contributes its local observations and
// applies the agreed union, so lanes retire at the same step on every
// rank and the subsequent halo spans never diverge. This replaces the
// plain barrier of the single-query protocol unconditionally — the
// batch entry point is a new collective schedule, sized one word wider.
func (p *plan) syncLanes(sts []*batchLane) error {
	var flag, mask uint64
	if p.cfg.Ctx != nil && p.cfg.Ctx.Err() != nil {
		flag = 1
	}
	for i, st := range sts {
		if !st.done && st.ctxErr() != nil {
			mask |= uint64(1) << uint(i)
		}
	}
	out := p.world.AllreduceOr([]uint64{flag, mask})
	if out[0] != 0 {
		if p.cfg.Ctx != nil {
			if err := p.cfg.Ctx.Err(); err != nil {
				return err
			}
		}
		// Another rank saw the cancellation first.
		return context.Canceled
	}
	for i, st := range sts {
		if out[1]&(uint64(1)<<uint(i)) != 0 && !st.done {
			st.done = true
			if err := st.ctxErr(); err != nil {
				st.err = err
			} else {
				st.err = context.Canceled
			}
		}
	}
	return nil
}

// liveLanes returns the lanes participating in phase q0 — not retired
// (collectively agreed) and still inside their own Gray prefix — with
// their live widths set. Purely deterministic in the agreed state, so
// every rank computes identical sets (and identical halo spans).
func liveLanes(sts []*batchLane, q0 uint64, n2 int) (live []*batchLane, kPhase int) {
	for _, st := range sts {
		if st.done || q0 >= st.iters {
			continue
		}
		st.nb = n2
		if rem := st.iters - q0; uint64(st.nb) > rem {
			st.nb = int(rem)
		}
		live = append(live, st)
		if st.k > kPhase {
			kPhase = st.k
		}
	}
	return live, kPhase
}

// fold accumulates the lane's finished DP level over the owned slots.
func (st *batchLane) fold(p *plan, vals []gf.Elem, stride int) {
	for _, v := range p.owned {
		row := int(p.slotOf[v])*stride + st.off
		for q := 0; q < st.nb; q++ {
			st.total ^= vals[row+q]
		}
	}
}

// batchPathRoundLocal runs this rank's share of one batched round.
// The structure is pathRoundLocal with a lane dimension: per phase,
// base values fill per live lane, the level loop runs to the deepest
// live k, each level exchanges ONE aggregated halo message per peer
// covering every lane still needing the next level, and lanes fold
// their totals at their own final level.
func (p *plan) batchPathRoundLocal(sts []*batchLane, n2 int) error {
	stride := len(sts) * n2
	var itersMax uint64
	for i, st := range sts {
		st.off = i * n2
		if st.iters > itersMax {
			itersMax = st.iters
		}
	}
	numPhases := (itersMax + uint64(n2) - 1) / uint64(n2)
	steps := (numPhases + uint64(p.groups) - 1) / uint64(p.groups)

	base := p.arena.Grab(p.nSlots * stride)
	prev := p.arena.Grab(p.nSlots * stride)
	cur := p.arena.Grab(p.nSlots * stride)
	defer p.arena.Put(base, prev, cur)
	one := mld.CachedMulTable(1)

	for s := uint64(0); s < steps; s++ {
		ph := s*uint64(p.groups) + uint64(p.gid)
		if ph < numPhases {
			q0 := ph * uint64(n2)
			live, kPhase := liveLanes(sts, q0, n2)
			if len(live) > 0 {
				p.span(obs.PhaseName, int(ph), "phase")
				p.rec.Add(obs.Phases, 1)
				elemSec, edgeSec := p.kernelCosts(3)
				// Base case per lane; ghost base values are computable
				// locally from the lane's globally-derived assignment.
				for _, st := range live {
					for sv := 0; sv < p.nSlots; sv++ {
						row := sv*stride + st.off
						st.a.FillBase(base[row:row+st.nb], p.vertOf[sv], q0, p.cfg.NoGray)
					}
					p.advanceCompute(elemSec * float64(p.nSlots) * float64(st.nb+st.k))
					p.countDPOps(float64(p.nSlots) * float64(st.nb+st.k))
				}
				spans := mergeSpans(live)
				for sv := 0; sv < p.nSlots; sv++ {
					row := sv * stride
					for _, sp := range spans {
						copy(prev[row+sp.lo:row+sp.hi], base[row+sp.lo:row+sp.hi])
					}
				}
				for _, st := range live {
					if st.k == 1 {
						st.fold(p, prev, stride)
					}
				}
				for j := 2; j <= kPhase; j++ {
					var lvl []*batchLane
					var lvlWidth int64
					for _, st := range live {
						if st.k >= j {
							lvl = append(lvl, st)
							lvlWidth += int64(st.nb)
						}
					}
					spans = mergeSpans(lvl)
					p.span(obs.LevelName, j, "level")
					p.rec.Add(obs.Levels, 1)
					for _, v := range p.owned {
						sv := int(p.slotOf[v])
						row := sv * stride
						for _, sp := range spans {
							dst := cur[row+sp.lo : row+sp.hi]
							for q := range dst {
								dst[q] = 0
							}
						}
						for _, u := range p.g.Neighbors(v) {
							urow := int(p.slotOf[u]) * stride
							for _, st := range lvl {
								t := one
								if !p.cfg.NoFingerprints {
									t = st.a.EdgeTable(u, v, j)
								}
								gf.MulSliceTable16(cur[row+st.off:row+st.off+st.nb], prev[urow+st.off:urow+st.off+st.nb], t)
							}
						}
						for _, sp := range spans {
							gf.HadamardInto(cur[row+sp.lo:row+sp.hi], cur[row+sp.lo:row+sp.hi], base[row+sp.lo:row+sp.hi])
						}
					}
					levelElems := float64(p.sumDegOwned+len(p.owned)) * float64(lvlWidth)
					p.advanceCompute(elemSec*levelElems + edgeSec*float64(p.sumDegOwned)*float64(len(lvl)))
					p.countDPOps(levelElems)
					// One aggregated halo message per peer regardless of
					// lane count, covering exactly the lanes that still
					// need level j as input (k > j). The deepest level
					// feeds only the local fold and needs no halo.
					var next []*batchLane
					for _, st := range lvl {
						if st.k > j {
							next = append(next, st)
						}
					}
					if len(next) > 0 {
						p.exchangeSpans(cur, stride, mergeSpans(next), j, j)
					}
					p.endSpan()
					prev, cur = cur, prev
					for _, st := range lvl {
						if st.k == j {
							st.fold(p, prev, stride)
						}
					}
				}
				var foldWidth float64
				for _, st := range live {
					foldWidth += float64(st.nb) // every live lane folds once per phase
				}
				p.advanceCompute(elemSec * float64(len(p.owned)) * foldWidth)
				p.countDPOps(float64(len(p.owned)) * foldWidth)
				p.endSpan()
			}
		}
		// Every rank walks the same global phase schedule, so the lane
		// phase counters stay rank-identical (the serve layer reads them
		// from rank 0's results).
		for gidx := 0; gidx < p.groups; gidx++ {
			ph2 := s*uint64(p.groups) + uint64(gidx)
			if ph2 >= numPhases {
				break
			}
			q02 := ph2 * uint64(n2)
			for _, st := range sts {
				if !st.done && q02 < st.iters {
					st.phases++
				}
			}
		}
		// Algorithm 2 line 12, batch form: agree on cancellations.
		if err := p.syncLanes(sts); err != nil {
			return err
		}
	}
	return nil
}

// exchangeSpans is exchange generalized to a batched value buffer: the
// same one-message-per-peer halo, with each boundary slot contributing
// the given spans (the live lanes' blocks) instead of one dense
// vector. Message COUNT therefore matches a single-query run at equal
// N1/N2; only the payload width scales with occupancy.
func (p *plan) exchangeSpans(vals []gf.Elem, stride int, spans []laneSpan, level, tag int) {
	width := 0
	for _, sp := range spans {
		width += sp.hi - sp.lo
	}
	p.span(obs.HaloName, level, "halo")
	haloStart := p.world.Clock().Now()
	for _, h := range p.sendTo {
		payload := make([]byte, 2*width*len(h.slots))
		off := 0
		for _, s := range h.slots {
			row := int(s) * stride
			for _, sp := range spans {
				for _, e := range vals[row+sp.lo : row+sp.hi] {
					payload[off] = byte(e)
					payload[off+1] = byte(e >> 8)
					off += 2
				}
			}
		}
		p.group.Send(h.part, tag, payload)
		p.rec.Add(obs.HaloMsgs, 1)
		p.rec.Add(obs.HaloBytes, int64(len(payload)))
		p.rec.AddHaloLevel(level, int64(len(payload)))
	}
	for _, h := range p.recvFrom {
		payload := p.group.Recv(h.part, tag)
		if len(payload) != 2*width*len(h.slots) {
			panic(fmt.Sprintf("core: batched halo message from part %d has %d bytes, want %d",
				h.part, len(payload), 2*width*len(h.slots)))
		}
		off := 0
		for _, s := range h.slots {
			row := int(s) * stride
			for _, sp := range spans {
				vec := vals[row+sp.lo : row+sp.hi]
				for q := range vec {
					vec[q] = gf.Elem(payload[off]) | gf.Elem(payload[off+1])<<8
					off += 2
				}
			}
		}
	}
	p.rec.Observe(obs.HistHaloExchange, p.world.Clock().Now()-haloStart)
	p.endSpan()
}
