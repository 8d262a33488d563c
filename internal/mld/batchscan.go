package mld

import (
	"fmt"

	"github.com/midas-hpc/midas/internal/graph"
)

// ScanTableBatch computes len(lanes) independent scan-statistics
// feasibility tables (see ScanTable) in one batched evaluation: for
// each subgraph size j, all lanes with k ≥ j sweep the 2^j iteration
// space together, one vertex fan-out per DP level serving every lane.
// Tables match per-lane ScanTable calls byte-for-byte. Non-GF16
// variants fall back to sequential per-lane runs.
func ScanTableBatch(g *graph.Graph, lanes []BatchLane, opt Options) ([]LaneResult, error) {
	if len(lanes) == 0 {
		return nil, nil
	}
	if len(lanes) > MaxBatchLanes {
		return nil, fmt.Errorf("mld: batch of %d lanes exceeds MaxBatchLanes=%d", len(lanes), MaxBatchLanes)
	}
	res := make([]LaneResult, len(lanes))
	if opt.Variant != VariantGF16 {
		for i, l := range lanes {
			table, err := ScanTable(g, l.K, l.ZMax, laneOptions(opt, l))
			res[i] = LaneResult{Table: table, Err: err}
		}
		return res, nil
	}
	n := g.NumVertices()
	var weightErr error
	for v := int32(0); v < int32(n); v++ {
		if w := g.Weight(v); w < 0 {
			weightErr = fmt.Errorf("mld: vertex %d has negative weight %d", v, w)
			break
		}
	}
	maxw := scanMaxWeight(g)
	if opt.Arena == nil {
		opt.Arena = NewArena()
	}
	// Pass MaxK as the vertex bound so no lane is skipped: unlike the
	// path/tree detectors, ScanTable still builds a table when k > n
	// (sizes j > n simply stay infeasible).
	sts, kmax, _ := batchStates(lanes, MaxK, res, opt, func(l BatchLane) (int, error) {
		if l.ZMax < 0 {
			return 0, fmt.Errorf("mld: negative weight cap %d", l.ZMax)
		}
		return l.K, nil
	})
	var zmaxAll int64
	for _, st := range sts {
		if weightErr != nil {
			st.done, st.err = true, weightErr
		}
		if st.ZMax > zmaxAll {
			zmaxAll = st.ZMax
		}
		st.scan = &scanExt{nz: int(st.ZMax) + 1}
		st.scan.feas = make([][]bool, st.k+1)
		for j := 1; j <= st.k; j++ {
			st.scan.feas[j] = make([]bool, st.scan.nz)
		}
	}

	// The width of the size-j pass, planned for the whole batch at its
	// widest weight axis (lanes keep private strata; this bounds them).
	width := func(j int) int { return PlanN2(opt.N2, n, j, len(sts), WeightSlabs(j, zmaxAll)) }

	var batchErr error
	for j := 1; j <= kmax && j <= n; j++ {
		// Each size is one engine pass over the lanes still interested:
		// a shared 2^j iteration space, per-lane round budgets derived
		// from the lane's own amplification knobs.
		var grpSts []*laneState
		for _, st := range sts {
			if st.k < j || st.done {
				continue
			}
			st.iters = uint64(1) << uint(j)
			st.roundsTotal = laneOptions(opt, st.BatchLane).RoundsFor(j)
			grpSts = append(grpSts, st)
		}
		if len(grpSts) == 0 {
			continue
		}
		gr := &famGroup{fam: &scanFamily{j: j, maxw: maxw}, sts: grpSts}
		if err := runGroups(g, []*famGroup{gr}, width(j), opt); err != nil {
			batchErr = err
			break
		}
	}
	if batchErr != nil {
		failOpen(sts, batchErr)
	}
	for _, st := range sts {
		table := st.scan.feas
		if st.err != nil {
			table = nil // match ScanTable: an aborted call yields no table
		}
		res[st.idx] = LaneResult{
			Table: table, Rounds: st.roundsRun,
			TotalPhases: PlannedPhases(st.k, width(st.k)),
			Phases:      st.phases,
			Err:         st.err,
		}
	}
	return res, batchErr
}
