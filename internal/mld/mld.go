// Package mld implements sequential k-multilinear detection (paper
// Sections III and V): the randomized evaluation that decides whether
// the k-path / k-tree / scan-statistics polynomial of a graph has a
// degree-k multilinear term, in O(2^k · poly) time and O(k · poly)
// space.
//
// # Evaluation strategy
//
// The working variant (VariantGF16) is Williams' refinement as engineered
// in the authors' implementation lineage: each vertex i receives a row
// u[i][1..k] of random GF(2^16) scalars; iteration t ∈ {0,1}^k assigns
// the vertex variable the scalar x_i(t) = Σ_{j∈t} u[i][j]; the DP of
// Algorithm 1 runs once per iteration over plain field scalars; and the
// XOR of the DP results over all 2^k iterations equals the coefficient
// of χ1…χk, which is zero for every monomial with a repeated vertex
// (a permanent with repeated rows in characteristic 2) and nonzero with
// high probability when a multilinear monomial exists. The identity is
// property-tested against the explicit algebra in internal/galois.
//
// VariantKoutis is the paper's Algorithm 1 exactly as printed: integer
// arithmetic mod 2^(k+1) with base case 1 + (-1)^(v_i·t). It is kept as
// a reference and ablation target.
//
// # Fingerprints
//
// Both variants multiply every DP transition by a pseudo-random
// per-(edge, level) coefficient derived by hashing, without which the
// two orientations of an undirected path cancel identically (see
// DESIGN.md §2; TestNaiveCancellation demonstrates the failure). Hashing
// makes the coefficients computable on any rank of the distributed
// implementation with no communication. gf keeps every coefficient's
// kernel form in one process-wide store (affine matrices where the CPU
// has GFNI, nibble tables elsewhere), built on first use. The path and
// tree sweeps walk each worker's CSR edges in chunks: they hash a
// chunk's coefficients, gather its forms from the store into a
// per-worker buffer (gf.FormsOf), then run its axpys (gf.MulSliceForm).
// A round of more than one phase hashes once, in phase 0, into a
// CSR-ordered stream of 2m·levels coefficients that later phases read
// back (family.go). The other GF(2^16) loops pass each coefficient to
// gf.MulSlice16. Under Options.NoFingerprints every coefficient is 1.
//
// # Iteration batching
//
// All evaluators process iterations in batches of N2 (the paper's phase
// width): the DP state for a vertex is a vector of N2 field elements
// updated by the fused kernels in internal/gf, which is both the unit of
// message aggregation for the distributed version and the source of the
// cache-locality speedup reported in the paper's Section IV-B. Iteration
// index q is mapped to the mask gray(q), so consecutive iterations in a
// batch differ in one bit and base values update incrementally.
//
// # Multi-query batching
//
// The sweep engine (family.go) drives exactly one query ("lane") per
// run. DetectPathBatch answers several k-path queries as a schedule of
// such runs, each at its own planned width, so every answer is
// byte-identical to the solo evaluator; a lane whose BatchLane.Ctx is
// cancelled stops at the next phase or level while the rest run on.
// No evaluator, sequential or distributed, shares one sweep among
// several queries: docs/BATCHING.md has the measurements that retired
// the strided layouts.
package mld

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// Variant selects the arithmetic of the evaluation.
type Variant int

// Supported variants.
const (
	VariantGF16   Variant = iota // Williams-style GF(2^16) evaluation (default)
	VariantKoutis                // Algorithm 1 verbatim: integers mod 2^(k+1)
	VariantGF8                   // GF(2^8): the paper's b = 3 + log2 k width
)

func (v Variant) String() string {
	switch v {
	case VariantGF16:
		return "gf16"
	case VariantKoutis:
		return "koutis"
	case VariantGF8:
		return "gf8"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// MaxK bounds the subgraph size: 2^k iterations must be enumerable in
// reasonable time and the Koutis modulus 2^(k+1) must fit comfortably
// in uint64 products.
const MaxK = 26

// Options configures a detection run. The zero value is usable: seed 0,
// ε = 0.05, derived round count, GF(2^16) variant, planned phase width.
type Options struct {
	Seed    uint64
	Epsilon float64 // target failure probability; default 0.05
	Rounds  int     // explicit round count; 0 derives from Epsilon
	Variant Variant
	N2      int // iteration batch (phase) width; 0 → planned from the query's shape (PlanN2); capped at 2^k
	Workers int // shared-memory workers for the DP vertex loops; 0/1 = serial

	// NoFingerprints disables the per-(edge, level) coefficients.
	// The result is the paper's pseudo-code taken literally, which is
	// unsound on undirected graphs; exposed only for the ablation and
	// the cancellation demonstration test.
	NoFingerprints bool
	// NoGray disables the Gray-code incremental base-value updates
	// (ablation; results are identical, only speed differs).
	NoGray bool

	// Obs, when non-nil, receives round/batch/level spans and DP
	// operation counts from the sequential evaluators (wall-clock time
	// base; the distributed instrumentation in internal/core uses the
	// virtual clock instead). Nil — the default — disables
	// instrumentation: every recorder call no-ops on nil, so
	// uninstrumented runs pay one pointer test per event.
	Obs *obs.Recorder

	// Arena, when non-nil, recycles the per-round DP slabs across
	// rounds and calls (see Arena). The Detect*/ScanTable entry points
	// install a private arena when left nil, so repeated rounds within
	// one call are allocation-free either way; set it to share slabs
	// across calls (the distributed plan and the bench harness do).
	Arena *Arena

	// Ctx, when non-nil, makes the evaluation cancellable: the round
	// and iteration-batch loops of the path/tree/scan evaluators check
	// it and return its error instead of finishing the remaining 2^k
	// iterations. Nil (the default) means run to completion with zero
	// per-batch overhead. The serving layer (internal/serve) sets it to
	// the per-request deadline context so abandoned queries stop
	// burning CPU; cancellation granularity is one DP level of one
	// iteration batch, so it does not coarsen as phases widen.
	Ctx context.Context

	// Progress, when non-nil, is invoked after each completed
	// iteration phase with the cumulative number of phases finished so
	// far — the same accounting as the obs.Phases counter, surfaced
	// synchronously so a caller (the serving layer's per-query traces)
	// can report live sweep progress without polling a recorder. It
	// runs on the sweep hot path, once per N2 iterations, from the
	// sweeping goroutine: keep it cheap and non-blocking. Families
	// with phase-less accounting (the scan table) never invoke it.
	Progress func(phasesDone int64)
}

func (o Options) epsilon() float64 {
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		return 0.05
	}
	return o.Epsilon
}

// RoundsFor returns the number of independent rounds the options imply
// for subgraph size k. The paper's bound (success ≥ 1/5 per round)
// gives ceil(log(1/ε)/log(5/4)); for the GF(2^16) variant the per-round
// failure is at most ~2k/2^16 by Schwartz–Zippel, so far fewer rounds
// reach the same ε.
func (o Options) RoundsFor(k int) int {
	if o.Rounds > 0 {
		return o.Rounds
	}
	eps := o.epsilon()
	var perRoundFail float64
	switch o.Variant {
	case VariantKoutis:
		perRoundFail = 0.8 // paper's conservative 4/5
	case VariantGF8:
		perRoundFail = float64(2*k+2) / 256.0
	default:
		perRoundFail = float64(2*k+2) / 65536.0
	}
	r := int(math.Ceil(math.Log(eps) / math.Log(perRoundFail)))
	if r < 1 {
		r = 1
	}
	return r
}

// obsSpan opens a recorder span named by one of obs's cached helpers,
// evaluating the name only when instrumentation is on (the disabled
// path must stay allocation-free even past the name cache). Pair with
// obsEnd.
func (o Options) obsSpan(name func(int) string, idx int, cat string) {
	if o.Obs.Enabled() {
		o.Obs.Begin(name(idx), cat)
	}
}

func (o Options) obsEnd() { o.Obs.End() }

// ctxErr reports the options context's cancellation state (nil when no
// context is attached — the non-cancellable fast path).
func (o Options) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// obsLevel charges one DP level to the recorder: the Levels counter and
// elems field-element operations (the analytic per-level op count; see
// docs/OBSERVABILITY.md on measured op counts vs. wall time).
func (o Options) obsLevel(elems int64) {
	o.Obs.Add(obs.Levels, 1)
	o.Obs.Add(obs.DPOps, elems)
}

// ValidateK checks that a subgraph size is within the supported range.
func ValidateK(k int) error {
	if k < 1 {
		return fmt.Errorf("mld: k must be positive, got %d", k)
	}
	if k > MaxK {
		return fmt.Errorf("mld: k=%d exceeds supported maximum %d", k, MaxK)
	}
	return nil
}

func validateK(k, n int) error { return ValidateK(k) }

// vertexCost is the fixed per-vertex overhead of a DP level update
// (base fill, Hadamard, bookkeeping) expressed in units of one
// neighbor-edge update, for the edge-balanced range cut below.
const vertexCost = 4

// parallelVertices runs fn over vertex ranges [lo,hi) on opt.Workers
// goroutines (serial when 0/1). Level updates write only to the
// vertices' own rows, so range splitting is race-free.
//
// Ranges are edge-balanced, not vertex-balanced: a level update costs
// one kernel call per incident edge, and on the skewed degree
// distributions of the paper's datasets (Barabási–Albert preferential
// attachment) equal vertex counts leave most workers idle behind the
// one holding the hubs. The CSR offsets array is exactly the degree
// prefix sum, so the cost prefix cost(v) = AdjOffset(v) + vertexCost·v
// is monotone and each worker boundary is one binary search for
// cost ≈ i/w of the total.
func (o Options) parallelVertices(g *graph.Graph, fn func(lo, hi int32)) {
	n := g.NumVertices()
	w := o.Workers
	if w <= 1 || n < 2*w {
		fn(0, int32(n))
		return
	}
	cost := func(v int) int64 {
		return g.AdjOffset(int32(v)) + int64(vertexCost)*int64(v)
	}
	total := cost(n)
	var wg sync.WaitGroup
	lo := 0
	for i := 1; i <= w && lo < n; i++ {
		hi := n
		if i < w {
			target := total * int64(i) / int64(w)
			hi = sort.Search(n, func(v int) bool { return cost(v) >= target })
			if hi <= lo {
				hi = lo + 1 // cost is monotone; still guarantee progress
			}
		}
		wg.Add(1)
		go func(lo, hi int32) {
			defer wg.Done()
			fn(lo, hi)
		}(int32(lo), int32(hi))
		lo = hi
	}
	wg.Wait()
}

// gray maps an iteration index to its mask; consecutive indices differ
// in exactly one bit. Any bijection works (the sum ranges over all
// masks); Gray order makes incremental updates O(1).
func gray(q uint64) uint64 { return q ^ (q >> 1) }

// flipBit returns the bit position in which gray(q) and gray(q+1)
// differ: the number of trailing zeros of q+1.
func flipBit(q uint64) int { return bits.TrailingZeros64(q + 1) }
