package mld

import (
	"errors"
	"fmt"

	"github.com/midas-hpc/midas/internal/graph"
)

// templateDigest fingerprints a template's shape so batch lanes with
// the same template share one decomposition and one phase schedule
// (FNV over k and the adjacency lists, which NewTemplate normalizes).
func templateDigest(t *graph.Template) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h ^= uint64(t.K())
	h *= prime
	for v := int32(0); v < int32(t.K()); v++ {
		for _, u := range t.Neighbors(v) {
			h ^= uint64(uint32(v))<<32 | uint64(uint32(u))
			h *= prime
		}
	}
	return h
}

// DetectTreeBatch answers len(lanes) independent tree-embedding
// queries in one batched evaluation; lanes may carry different
// templates (grouped by shape, one decomposition and DP buffer set per
// group, all groups interleaved through one iteration sweep). Results
// match per-lane DetectTree calls byte-for-byte. Non-GF16 variants
// fall back to sequential per-lane runs.
func DetectTreeBatch(g *graph.Graph, lanes []BatchLane, opt Options) ([]LaneResult, error) {
	if len(lanes) == 0 {
		return nil, nil
	}
	if len(lanes) > MaxBatchLanes {
		return nil, fmt.Errorf("mld: batch of %d lanes exceeds MaxBatchLanes=%d", len(lanes), MaxBatchLanes)
	}
	res := make([]LaneResult, len(lanes))
	if opt.Variant != VariantGF16 {
		for i, l := range lanes {
			if l.Template == nil {
				res[i].Err = errors.New("mld: tree lane has no template")
				continue
			}
			found, err := DetectTree(g, l.Template, laneOptions(opt, l))
			res[i] = LaneResult{Found: found, Err: err}
		}
		return res, nil
	}
	if opt.Arena == nil {
		opt.Arena = NewArena()
	}
	n := g.NumVertices()
	sts, kmax, _ := batchStates(lanes, n, res, opt, func(l BatchLane) (int, error) {
		if l.Template == nil {
			return 0, errors.New("mld: tree lane has no template")
		}
		return l.Template.K(), nil
	})
	n2 := PlanN2(opt.N2, n, kmax, len(sts), LevelSlabs(kmax))

	groups := make([]*famGroup, 0, len(sts))
	byDigest := make(map[uint64]*famGroup)
	for _, st := range sts {
		dig := templateDigest(st.Template)
		gr, ok := byDigest[dig]
		if !ok {
			gr = &famGroup{fam: &treeFamily{d: st.Template.Decompose()}}
			byDigest[dig] = gr
			groups = append(groups, gr)
		}
		gr.sts = append(gr.sts, st)
	}

	batchErr := runGroups(g, groups, n2, opt)
	for _, st := range sts {
		res[st.idx] = LaneResult{
			Found: st.found, Rounds: st.roundsRun, Phases: st.phases,
			TotalPhases: PlannedPhases(st.k, n2),
			Err:         st.err,
		}
	}
	return res, batchErr
}
