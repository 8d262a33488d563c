package mld

// The polynomial-family engine: ONE implementation of the round loop,
// the Gray-code phase sweep, arena slab recycling and cancellation,
// shared by every detection workload. A Family contributes only what is
// mathematically its own — how a round's randomness is derived, how the
// DP slabs are laid out, the init row, the per-level transfer, and the
// finalize/fold steps — so the Family is the evaluation oracle of the
// sieve and the engine is the sieve.
//
// Execution model: the engine drives exactly one lane (laneState) per
// run. Per round the lane draws a fresh assignment; per phase q0 the
// engine checks cancellation, trims the final short phase, and calls
// the family's InitRow → Transfer* → Finalize. A phase of width nb
// packs vertex i's DP vector at elements [i·nb, (i+1)·nb) of every
// slab, so a finished level is the slab's first n·nb elements.

import (
	"sync/atomic"
	"unsafe"

	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// Family is one polynomial family (k-path, k-tree, scan-statistics,
// constrained motif) as seen by the sweep engine. One instance serves
// one lane for the duration of a run; implementations keep their DP
// slabs as instance state between Alloc and Free.
type Family interface {
	// Kind names the family for diagnostics.
	Kind() string

	// NewAssignment derives the lane's randomness for a round — a pure
	// function of (lane seed, round, family tag), so distributed ranks
	// reproduce solo runs exactly.
	NewAssignment(n int, st *laneState, round int) *Assignment

	// BeginRound resets the lane's per-round accumulator.
	BeginRound(st *laneState)

	// CountPhases reports whether the engine charges phase spans and
	// the lane's phase counter for this family. The scan table keeps
	// its historical phase-less accounting; path/tree/motif count.
	CountPhases() bool

	// Alloc grabs the DP slabs for one round's sweep (n × N2 elements
	// each) from the options arena; Free returns them.
	Alloc(e *laneRun)
	Free(e *laneRun)

	// InitRow computes the level-1 DP row of the phase (base values
	// x_i(gray(q0+q)) and whatever the family layers on them) and folds
	// the lane if its polynomial is a single level.
	InitRow(e *laneRun)

	// Transfers is the number of per-level transfer steps of a phase.
	Transfers(e *laneRun) int

	// Transfer runs transfer step ∈ [1, Transfers] — one DP level —
	// folding the lane if it finishes at this level.
	Transfer(e *laneRun, step int)

	// Finalize folds whatever the transfer steps did not (families
	// that finish at the last level fold here).
	Finalize(e *laneRun)

	// EndRound inspects the lane's round accumulator after a completed
	// sweep: families with found/not-found semantics mark the lane
	// found or done, table families fold the totals and run on.
	EndRound(st *laneState, round int)
}

// laneState tracks one query through the round/phase loops.
type laneState struct {
	BatchLane
	iters       uint64 // 2^k: the lane's iteration space
	roundsTotal int
	a           *Assignment
	nb          int // width of the current phase
	total       gf.Elem
	found       bool
	done        bool
	err         error
	roundsRun   int64
	phases      int64
	scan        *scanExt // scan lanes only: table + per-round totals
}

// newLane builds the state of lane l, its round budget derived from
// the lane's own amplification knobs exactly as a solo run derives it.
func newLane(l BatchLane, opt Options) *laneState {
	return &laneState{
		BatchLane:   l,
		iters:       uint64(1) << uint(l.K),
		roundsTotal: laneOptions(opt, l).RoundsFor(l.K),
	}
}

// soloLane is the lane of a sequential entry point: the Options'
// seeding, no lane context (the run's context is opt.Ctx).
func soloLane(k int, opt Options) *laneState {
	return newLane(BatchLane{K: k, Seed: opt.Seed, Epsilon: opt.Epsilon, Rounds: opt.Rounds}, opt)
}

// assignedLane is a lane with a preset assignment, for one sweep of one
// round (the *Round evaluators).
func assignedLane(a *Assignment) *laneState {
	return &laneState{BatchLane: BatchLane{K: a.K}, iters: uint64(1) << uint(a.K), a: a}
}

// fail resolves an open lane to err.
func (st *laneState) fail(err error) {
	if !st.done {
		st.done, st.err = true, err
	}
}

// accumulate folds a finished DP level — the first n·nb elements of
// its slab — into the lane's round total. The sum is a XOR, so it runs
// over 64-bit words, four elements each, between a scalar head up to an
// 8-byte boundary and a scalar tail, and folds the word's four lanes at
// the end.
func (st *laneState) accumulate(vals []gf.Elem) {
	t := st.total
	for len(vals) > 0 && uintptr(unsafe.Pointer(&vals[0]))&7 != 0 {
		t ^= vals[0]
		vals = vals[1:]
	}
	var w uint64
	if n := len(vals) / 4; n > 0 {
		for _, x := range unsafe.Slice((*uint64)(unsafe.Pointer(&vals[0])), n) {
			w ^= x
		}
		vals = vals[4*n:]
	}
	for _, v := range vals {
		t ^= v
	}
	w ^= w >> 32
	w ^= w >> 16
	st.total = t ^ gf.Elem(w)
}

// laneRun is the engine→family call context of one sweep: the graph,
// options, planned width, the lane, and the current phase.
type laneRun struct {
	g       *graph.Graph
	opt     Options
	n2      int
	q0      uint64
	st      *laneState
	skipped atomic.Int64 // dead-cell counter, flushed per sweep
	coeffs  []gf.Elem    // the round's fingerprints in CSR order (grabCoeffs), or nil
}

// levelElems is the analytic per-iteration element count of one DP
// level: Σdeg + n (see docs/OBSERVABILITY.md).
func levelElems(g *graph.Graph) int64 {
	return int64(2*g.NumEdges() + g.NumVertices())
}

// runLane is the engine's round loop: per round, draw the lane's
// assignment, sweep the iteration space at width n2, then let the
// family judge the round's totals. An expired opt.Ctx fails the lane
// open with the context error, which runLane also returns.
func runLane(g *graph.Graph, fam Family, st *laneState, n2 int, opt Options) error {
	n := g.NumVertices()
	for round := 0; !st.done && round < st.roundsTotal; round++ {
		if err := opt.ctxErr(); err != nil {
			st.fail(err)
			return err
		}
		opt.obsSpan(obs.RoundName, round, "round")
		opt.Obs.Add(obs.Rounds, 1)
		st.a = fam.NewAssignment(n, st, round)
		fam.BeginRound(st)
		st.roundsRun++
		err := sweep(g, fam, st, n2, opt)
		opt.obsEnd()
		if err != nil {
			st.fail(err)
			return err
		}
		if !st.done { // a lane cancelled mid-round has a void accumulator
			fam.EndRound(st, round)
		}
	}
	return nil
}

// sweep runs one round's pass over the lane's 2^k iteration space in
// phases of n2, the last one trimmed. It returns opt.Ctx's error if the
// run is cancelled; a cancelled lane context (BatchLane.Ctx) instead
// resolves the lane to that error and ends the sweep quietly. Both are
// checked at every phase and every DP level, so cancel latency is one
// level however wide the planner makes phases.
func sweep(g *graph.Graph, fam Family, st *laneState, n2 int, opt Options) error {
	e := &laneRun{g: g, opt: opt, n2: n2, st: st}
	fam.Alloc(e)
	defer fam.Free(e)
	defer func() { opt.Obs.Add(obs.CellsSkipped, e.skipped.Load()) }()
	count := fam.CountPhases()
	for q0 := uint64(0); q0 < st.iters; q0 += uint64(n2) {
		if stop, err := e.cancelled(); stop {
			return err
		}
		e.q0 = q0
		st.nb = n2
		if rem := st.iters - q0; uint64(st.nb) > rem {
			st.nb = int(rem)
		}
		if count {
			opt.obsSpan(obs.PhaseName, int(q0)/n2, "phase")
		}
		fam.InitRow(e)
		for step, nT := 1, fam.Transfers(e); step <= nT; step++ {
			if stop, err := e.cancelled(); stop {
				if count {
					opt.obsEnd()
				}
				return err
			}
			fam.Transfer(e, step)
		}
		fam.Finalize(e)
		if count {
			// Only finished phases count: Phases < TotalPhases is the
			// proof of an unfinished sweep, mid-phase cancels included.
			st.phases++
			opt.Obs.Add(obs.Phases, 1)
			opt.obsEnd()
			if opt.Progress != nil {
				opt.Progress(st.phases)
			}
		}
	}
	return nil
}

// cancelled reports whether the sweep must stop before the next phase
// or level, and the error sweep returns: opt.Ctx's, or nil when only
// the lane's own context expired (the lane carries that error).
func (e *laneRun) cancelled() (bool, error) {
	if err := e.opt.ctxErr(); err != nil {
		return true, err
	}
	if err := e.st.ctxErr(); err != nil {
		e.st.fail(err)
		return true, nil
	}
	return false, nil
}

// addSkipped folds a worker's dead-cell count into the sweep counter.
func (e *laneRun) addSkipped(sk int64) {
	if sk != 0 {
		e.skipped.Add(sk)
	}
}

// Fingerprinted transfers. A path or tree level multiplies each
// neighbour row by its (edge, level) fingerprint: one axpy per CSR edge,
// whose kernel needs the coefficient's form from gf's store (2 MiB of
// affine matrices on GFNI hosts). Read one axpy at a time, that form is
// a dependent random miss behind a hash, in every phase again. transfer
// instead walks a worker's edges in chunks of formChunk: it first
// gathers the chunk's forms into a per-worker buffer, so the scattered
// store reads overlap, then runs the chunk's axpys. A round of more than
// one phase also keeps its coefficients, hashed in phase 0, in one
// CSR-ordered stream of 2m·levels elements, so later phases read them
// instead of hashing again. Each worker writes only its own vertices'
// edges, the worker ranges are the same in every phase, and the level
// barrier orders those writes before any later read.

const (
	// formChunk is the edge count of one gather: its forms take 64 KiB
	// and its coefficients 4 KiB of one arena slab, whatever the graph.
	formChunk = 2048
	// coeffStreamBudget caps the coefficient stream's bytes; a larger
	// round hashes its coefficients in every phase instead. solo-deep's
	// stream (n = 750, k = 11) takes 199 KB.
	coeffStreamBudget = 4 << 20
)

// grabCoeffs gives a round of more than one phase its coefficient
// stream for `levels` fingerprinted levels, from the arena; Free must
// return it with putCoeffs. A one-phase round, a NoFingerprints run and
// a stream over coeffStreamBudget get none.
func (e *laneRun) grabCoeffs(levels int) {
	size := levels * len(e.g.Adj())
	if e.st.iters > uint64(e.n2) && !e.opt.NoFingerprints && 2*size <= coeffStreamBudget {
		e.coeffs = e.opt.Arena.Grab(size)
	}
}

// putCoeffs returns the coefficient stream to the arena.
func (e *laneRun) putCoeffs() {
	e.opt.Arena.Put(e.coeffs)
	e.coeffs = nil
}

// transfer sets, for every vertex i in [lo, hi), its row of nb
// elements to
//
//	dst[i] = mul[i] ⊙ Σ_{u ∈ N(i)} r(u, i, level) · src[u]
//
// where r is the fingerprint EdgeCoeff(u, i, level), or 1 under
// NoFingerprints. slot ∈ [0, levels) is the level's row of the
// coefficient stream. dst must not alias src or mul.
func (e *laneRun) transfer(lo, hi int32, level, slot int, dst, src, mul []gf.Elem) {
	if lo >= hi {
		return
	}
	nb, off, adj := e.st.nb, e.g.Offsets(), e.g.Adj()
	var stream []gf.Elem
	if e.coeffs != nil {
		stream = e.coeffs[slot*len(adj) : (slot+1)*len(adj)]
	}
	hash := stream == nil || e.q0 == 0 // else read what phase 0 hashed
	buf := e.opt.Arena.Grab(formChunk * (gf.FormElems + 1))
	defer e.opt.Arena.Put(buf)
	forms, chunk := gf.FormsIn(buf[:formChunk*gf.FormElems]), buf[formChunk*gf.FormElems:]
	row := func(s []gf.Elem, i int32) []gf.Elem { return s[int(i)*nb : int(i+1)*nb] }
	v, i := lo, lo // owners of the next edge to hash and to sum
	// Rows are cleared as their sums start, not all up front, so each
	// is still in cache for its axpys and its Hadamard.
	clear(row(dst, i))
	next := func() {
		gf.HadamardInto(row(dst, i), row(dst, i), row(mul, i))
		if i++; i < hi {
			clear(row(dst, i))
		}
	}
	for c0, end := off[lo], off[hi]; c0 < end; c0 += formChunk {
		c1 := min(c0+formChunk, end)
		cs := chunk[:c1-c0]
		switch {
		case e.opt.NoFingerprints:
			for j := range cs {
				cs[j] = 1
			}
		case !hash:
			cs = stream[c0:c1]
		default:
			if stream != nil {
				cs = stream[c0:c1]
			}
			for c := c0; c < c1; c++ {
				for off[v+1] <= c {
					v++
				}
				cs[c-c0] = e.st.a.EdgeCoeff(adj[c], v, level)
			}
		}
		gf.FormsOf(forms, cs)
		for c := c0; c < c1; c++ {
			for off[i+1] <= c {
				next()
			}
			gf.MulSliceForm(row(dst, i), row(src, adj[c]), &forms[c-c0])
		}
	}
	for i < hi {
		next()
	}
}
