package core

import (
	"sync"
	"time"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/rng"
)

// Compute-cost calibration.
//
// Modeled makespans need per-rank compute times. Measuring them with
// wall clocks is wrong on this machine: with N ranks multiplexed onto
// one core, a rank's timed section includes the time slices of every
// other runnable goroutine, inflating "compute" by up to N×. Instead,
// the evaluators count their operations and convert them to seconds
// with two constants calibrated once per process:
//
//	elemSec — seconds per vector-kernel element (MulSlice16/Hadamard,
//	          measured on cache-resident 128-wide vectors)
//	edgeSec — seconds of per-edge overhead (fingerprint hash + call)
//
// The model deliberately does NOT vary the element cost with the
// rank's working-set size: an attempt to calibrate footprint-dependent
// costs with synthetic sweeps produced numbers contradicting the real
// measurements (the actual DP keeps the GF tables hot and streams its
// buffers, which a synthetic pattern fails to mimic). Cache effects are
// therefore reported where they can be measured honestly — the
// sequential wall-time N2/Gray ablations — while the makespan model
// captures the partitioning and communication structure, which is what
// the scaling figures are about (DESIGN.md §3).

var (
	calibOnce sync.Once
	elemSecC  float64
	edgeSecC  float64
)

func calibrate() {
	calibOnce.Do(func() {
		const width = 128
		dst := make([]gf.Elem, width)
		src := make([]gf.Elem, width)
		for i := range src {
			src[i] = gf.Elem(i*2654435761 + 1)
		}
		gf.MulSlice16(dst, src, 3) // warm tables
		const iters = 20000
		start := time.Now()
		for i := 0; i < iters; i++ {
			gf.MulSlice16(dst, src, gf.Elem(i)|1)
		}
		elemSecC = time.Since(start).Seconds() / float64(iters*width)

		start = time.Now()
		var sink gf.Elem
		for i := 0; i < iters; i++ {
			sink ^= gf.NonZero(rng.Hash2(42, uint64(i), 7))
		}
		_ = sink
		edgeSecC = time.Since(start).Seconds() / float64(iters)
		if elemSecC <= 0 {
			elemSecC = 1e-9
		}
		if edgeSecC <= 0 {
			edgeSecC = 1e-8
		}
	})
}

// kernelCosts returns the calibrated (element, edge) costs.
func (p *plan) kernelCosts() (elemSec, edgeSec float64) {
	calibrate()
	return elemSecC, edgeSecC
}

// Query auto-planning.
//
// The serving layer historically took N1 (graph parts) and N2 (phase
// width) as static flags. N2 is no longer planned here: the phase
// width is mld.PlanN2's, a byte budget on the DP state (slabs × n × N2
// two-byte elements) that Config.withDefaults applies to every run,
// auto-tuned or not. The earlier planner in this file
// capped the width at 256 for fear of cache thrash and narrowed it
// under load; a measured N2 sweep is monotone with no cliff
// (docs/PERFORMANCE.md, "Table fetch"), and finer phases cost 2–3× the
// CPU per query exactly when CPU is scarce, so both rules are gone.
// What remains is the grain: AutoPlanN1 is a pure function of the
// graph and world shape — deliberately NOT of the calibrated constants
// above, nor of load — so every replica of a fleet picks the same plan
// for the same query. Answers are independent of both knobs (pinned by
// the equivalence suites); only performance is at stake.

// AutoPlanN1 picks the graph-part count for a distributed query on a
// world of the given rank count: the largest divisor of ranks that
// still leaves every part at least autoPlanMinPart vertices, so tiny
// graphs replicate phases across groups instead of shattering into
// halo-dominated slivers. Always ≥ 1 and a divisor of ranks, so the
// result is valid for core.Config.N1.
func AutoPlanN1(vertices, ranks int) int {
	if ranks <= 1 {
		return 1
	}
	const autoPlanMinPart = 256
	for n1 := ranks; n1 > 1; n1-- {
		if ranks%n1 != 0 {
			continue
		}
		if vertices/n1 >= autoPlanMinPart {
			return n1
		}
	}
	return 1
}
