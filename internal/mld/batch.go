package mld

// Batched multi-query evaluation: one pass over the 2^k iteration
// space services several queries ("lanes") at once. Each lane keeps
// its own Assignment, so a batched lane's totals are bit-identical to
// the sequential run of the same (seed, round) — batching changes only
// *when* work happens, never *what* is computed (TestDetectPathBatch-
// MatchesSequential pins this).
//
// Two properties make the sharing sound (docs/BATCHING.md derives
// both):
//
//   - k-prefix reuse: gray(q) restricted to q < 2^k' is a bijection on
//     the masks over the low k' columns, so the first 2^k' iterations
//     of a deeper sweep enumerate exactly a k'-lane's whole iteration
//     space. A k'<k lane therefore accumulates only over that prefix
//     and then retires from the phase loop.
//   - lane independence: the DP state of lane l lives in its own
//     contiguous block of each vertex row (stride = lanes × N2, lane l
//     at offset l·N2), so the nibble-split MulTable kernels stream one
//     vertex row across all live lanes with no per-lane dispatch
//     beyond the per-(edge, lane) table lookup, and zero-fill /
//     Hadamard steps fuse across adjacent live lanes.
//
// A cancelled lane (its BatchLane.Ctx expired) is masked out at the
// next phase boundary: its LaneResult carries the context error and
// the remaining lanes keep running — one impatient query does not
// abort the flight.

import (
	"context"
	"fmt"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
)

// MaxBatchLanes bounds the lanes of one batch. The distributed batch
// protocol (internal/core) carries the per-lane cancellation state as
// one uint64 bitmask in its per-step all-reduce, so the bound is 64.
const MaxBatchLanes = 64

// BatchLane is one query of a batch: the target plus the per-lane
// seeding, amplification, and cancellation knobs that the sequential
// entry points take via Options. Fields irrelevant to the batch kind
// (Template for paths, ZMax for paths/trees) are ignored.
type BatchLane struct {
	K        int             // subgraph size (ignored for tree/motif lanes: the template/spec decides)
	Template *graph.Template // tree lanes only
	ZMax     int64           // scan lanes only: weight cap
	Motif    *MotifSpec      // motif lanes only: color-multiset constraint
	Seed     uint64
	Epsilon  float64         // 0 → the batch Options' default
	Rounds   int             // 0 → derived from Epsilon
	Ctx      context.Context // per-lane cancellation; nil = run to completion
}

func (l BatchLane) ctxErr() error {
	if l.Ctx == nil {
		return nil
	}
	return l.Ctx.Err()
}

// LaneResult is one lane's outcome. Found/Table match the sequential
// evaluator byte-for-byte; Rounds/Phases count the lane's share of the
// batched execution (phases at the *batch's* iteration width, which
// TotalPhases also uses, so Phases < TotalPhases still proves an
// unfinished sweep). Err is the lane's own failure — typically its
// context error after a mid-flight cancel — and leaves other lanes
// untouched.
type LaneResult struct {
	Found       bool
	Table       [][]bool
	Rounds      int64
	Phases      int64
	TotalPhases int64
	Err         error
}

// laneOptions is the sequential-equivalent Options for one lane: the
// batch Options with the lane's seeding spliced in. Used by RoundsFor
// (so round counts match a sequential run exactly) and by the
// non-GF16 fallback path.
func laneOptions(opt Options, l BatchLane) Options {
	opt.Seed = l.Seed
	opt.Epsilon = l.Epsilon
	opt.Rounds = l.Rounds
	opt.Ctx = l.Ctx
	return opt
}

// laneState tracks one lane through the round/phase loops.
type laneState struct {
	BatchLane
	idx         int // index into the results slice
	k           int
	iters       uint64 // 2^k: the lane's Gray prefix
	roundsTotal int
	a           *Assignment
	off         int // element offset of the lane's block in a vertex row
	nb          int // live width this phase
	total       gf.Elem
	found       bool
	done        bool
	err         error
	roundsRun   int64
	phases      int64
	scan        *scanExt // scan lanes only: table + weight-stratified DP
}

// span is a contiguous element range [lo, hi) within a vertex row
// covering one or more adjacent live lanes, the unit of the fused
// zero-fill / copy / Hadamard steps.
type span struct{ lo, hi int }

// liveSpans merges the blocks of the given lanes (ascending offsets)
// into maximal contiguous spans. A lane in its final, short phase
// (nb < N2) ends a span: the gap to the next lane's offset is dead.
func liveSpans(lanes []*laneState) []span {
	out := make([]span, 0, len(lanes))
	for _, st := range lanes {
		lo, hi := st.off, st.off+st.nb
		if n := len(out); n > 0 && out[n-1].hi == lo {
			out[n-1].hi = hi
		} else {
			out = append(out, span{lo, hi})
		}
	}
	return out
}

// accumulate folds the lane's finished DP level into its round total.
func (st *laneState) accumulate(vals []gf.Elem, stride, n int) {
	for i := 0; i < n; i++ {
		row := i*stride + st.off
		for q := 0; q < st.nb; q++ {
			st.total ^= vals[row+q]
		}
	}
}

// batchStates validates lanes and builds the shared state. Lanes whose
// k exceeds the vertex count resolve immediately (Found=false, like
// the sequential entry points); invalid lanes resolve to their error.
func batchStates(lanes []BatchLane, n int, res []LaneResult, opt Options, kOf func(BatchLane) (int, error)) ([]*laneState, int, int) {
	sts := make([]*laneState, 0, len(lanes))
	kmax, maxRounds := 0, 0
	for i, l := range lanes {
		k, err := kOf(l)
		if err == nil {
			err = ValidateK(k)
		}
		if err != nil {
			res[i].Err = err
			continue
		}
		if k > n {
			continue // Found=false, no work
		}
		st := &laneState{BatchLane: l, idx: i, k: k, iters: uint64(1) << uint(k)}
		st.roundsTotal = laneOptions(opt, l).RoundsFor(k)
		sts = append(sts, st)
		if k > kmax {
			kmax = k
		}
		if st.roundsTotal > maxRounds {
			maxRounds = st.roundsTotal
		}
	}
	return sts, kmax, maxRounds
}

// failOpen marks every unresolved lane with err (a batch-wide abort:
// the Options context expired, killing the whole flight).
func failOpen(sts []*laneState, err error) {
	for _, st := range sts {
		if !st.done {
			st.done, st.err = true, err
		}
	}
}

// DetectPathBatch answers len(lanes) independent k-path queries in one
// batched evaluation. Results (and the per-round randomness behind
// them) are identical to calling DetectPath once per lane with the
// lane's seeding; see the package comment on what is shared. Only the
// GF(2^16) variant has lane-contiguous kernels; other variants fall
// back to sequential per-lane runs.
func DetectPathBatch(g *graph.Graph, lanes []BatchLane, opt Options) ([]LaneResult, error) {
	if len(lanes) == 0 {
		return nil, nil
	}
	if len(lanes) > MaxBatchLanes {
		return nil, fmt.Errorf("mld: batch of %d lanes exceeds MaxBatchLanes=%d", len(lanes), MaxBatchLanes)
	}
	res := make([]LaneResult, len(lanes))
	if opt.Variant != VariantGF16 {
		for i, l := range lanes {
			found, err := DetectPath(g, l.K, laneOptions(opt, l))
			res[i] = LaneResult{Found: found, Err: err}
		}
		return res, nil
	}
	if opt.Arena == nil {
		opt.Arena = NewArena()
	}
	n := g.NumVertices()
	sts, kmax, _ := batchStates(lanes, n, res, opt, func(l BatchLane) (int, error) { return l.K, nil })
	n2 := PlanN2(opt.N2, n, kmax, len(sts), PathSlabs)

	gr := &famGroup{fam: &pathFamily{}, sts: sts}
	batchErr := runGroups(g, []*famGroup{gr}, n2, opt)
	for _, st := range sts {
		res[st.idx] = LaneResult{
			Found: st.found, Rounds: st.roundsRun, Phases: st.phases,
			TotalPhases: PlannedPhases(st.k, n2),
			Err:         st.err,
		}
	}
	return res, batchErr
}
