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
// its slab — into the lane's round total.
func (st *laneState) accumulate(vals []gf.Elem) {
	for _, v := range vals {
		st.total ^= v
	}
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
