package mld

// Phase-width (N2) planning — the one place the default lives.
//
// A sweep's fixed cost is paid per phase: every phase walks all 2m
// edges at every level, gathers one coefficient form per (edge,
// level) and calls one axpy per edge, whatever the width of the vectors
// it then multiplies. Since the path and tree sweeps gather forms in
// CSR order and hash once per round, that cost is small at the planned
// width: at solo-deep's shape the planned width runs as fast as one
// phase of 2^k, while 128-wide phases still take 1.4–1.9× as long
// (docs/PERFORMANCE.md §16). A measured N2 sweep is monotone with no
// cache cliff (§11), so the only ceiling on the width is the space the
// DP state takes: slabs · n · N2 two-byte elements (the
// Akhtar–Misra–Philip accounting, PAPERS.md). PlanN2 spends a fixed
// byte budget on it; the budget now guards memory more than time.
//
// The plan is a pure function of the query's shape — never of load,
// calibration, or the host — so every replica of a fleet and every
// rank of a world derives the same width with no communication.
// Answers do not depend on N2 at all (the equivalence suites pin it);
// only time and memory do.

const (
	// phaseStateBudget is the DP-state bytes a planned phase may hold.
	// 4 MiB plans 512-wide path phases at n = 750 and leaves n = 4000
	// at the floor; 8 MiB measured 0.81× the query time at n = 750 for
	// +14 % peak RSS (docs/PERFORMANCE.md §11).
	phaseStateBudget = 4 << 20
	// minPhaseWidth floors the plan: below it the per-phase fixed cost
	// dominates however large the graph, so big graphs pay memory
	// rather than run narrower.
	minPhaseWidth = 128
)

// PlanN2 returns the phase width for a sweep of 2^k iterations (k
// already validated, see ValidateK) over an n-vertex graph whose DP
// keeps `slabs` buffers of n·N2 elements alive at once. An
// explicit width (> 0) wins; otherwise the plan is the largest power of
// two whose state fits phaseStateBudget, at least minPhaseWidth. Either
// way the result is capped at 2^k.
func PlanN2(explicit, n, k, slabs int) int {
	total := 1 << uint(k)
	n2 := explicit
	if n2 <= 0 {
		perIter := 2 * int64(slabs) * int64(n) // state bytes per unit of width
		n2 = minPhaseWidth
		for n2 < total && perIter*int64(2*n2) <= phaseStateBudget {
			n2 *= 2
		}
	}
	return min(n2, total)
}

// PlannedPhases is the phase count of one full 2^k sweep at width n2.
func PlannedPhases(k, n2 int) int64 {
	total := uint64(1) << uint(k)
	return int64((total + uint64(n2) - 1) / uint64(n2))
}

// Slab counts of the families' DP state, for PlanN2.

// PathSlabs is the k-path DP: base, previous level, current level.
const PathSlabs = 3

// LevelSlabs is the tree DP (k−1 internal decomposition nodes plus the
// base row) and the motif DP (one slab per level).
func LevelSlabs(k int) int { return k }

// WeightSlabs is a weight-stratified DP: one slab per (level, weight
// ≤ zmax) plus the base row. The scan table at size j keeps j levels;
// max-weight path keeps two; max-weight tree one per internal node.
func WeightSlabs(levels int, zmax int64) int { return levels*(int(zmax)+1) + 1 }
