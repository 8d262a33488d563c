package mld

// Multi-query path evaluation: DetectPathBatch answers several k-path
// queries ("lanes") as a schedule of one-lane engine runs, each planned
// at its own k exactly like DetectPath, so a lane's answer is
// byte-identical to the solo run of the same seeding (TestDetectPath-
// BatchMatchesSequential pins this).
//
// A cancelled lane (its BatchLane.Ctx expired) stops at the next phase
// or DP level: its LaneResult carries the context error and the
// remaining lanes still run — one impatient query does not abort the
// flight.

import (
	"context"
	"fmt"

	"github.com/midas-hpc/midas/internal/graph"
)

// MaxBatchLanes bounds the lanes of one DetectPathBatch call and of one
// batch that midas-serve's admission window assembles (its
// BatchMaxLanes is capped here).
const MaxBatchLanes = 64

// BatchLane is one query of a batch: the target plus the per-lane
// seeding, amplification, and cancellation knobs that the sequential
// entry points take via Options. Fields irrelevant to the query kind
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
// evaluator byte-for-byte; Rounds/Phases count the lane's own
// execution (phases at the lane's own planned width, which TotalPhases
// also uses, so Phases < TotalPhases still proves an unfinished sweep).
// Err is the lane's own failure — typically its context error after a
// mid-flight cancel — and leaves other lanes untouched.
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

// DetectPathBatch answers len(lanes) independent k-path queries, lane
// by lane in order, each as its own one-lane sweep planned at
// PlanN2(opt.N2, n, k, PathSlabs). Results are identical to calling
// DetectPath once per lane with the lane's seeding. Lanes with an
// invalid k resolve to the validation error and lanes with k > n to
// Found=false, with no work. An expired opt.Ctx fails the lane it
// interrupts and every lane after it, and is returned. The GF(2^8) and
// Koutis variants run DetectPath per lane.
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
	var batchErr error
	for i, l := range lanes {
		if err := ValidateK(l.K); err != nil {
			res[i].Err = err
			continue
		}
		if l.K > n {
			continue // Found=false, no work
		}
		st := newLane(l, opt)
		n2 := PlanN2(opt.N2, n, l.K, PathSlabs)
		if batchErr == nil {
			batchErr = runLane(g, &pathFamily{}, st, n2, opt)
		} else {
			st.fail(batchErr)
		}
		res[i] = LaneResult{
			Found: st.found, Rounds: st.roundsRun, Phases: st.phases,
			TotalPhases: PlannedPhases(l.K, n2),
			Err:         st.err,
		}
	}
	return res, batchErr
}
