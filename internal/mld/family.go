package mld

// The polynomial-family engine: ONE implementation of the round loop,
// the Gray-code phase sweep, the batch lane layout, arena slab
// recycling, and per-lane cancellation, shared by every detection
// workload. A Family contributes only what is mathematically its own —
// how a round's randomness is derived, how the DP slabs are laid out,
// the init row, the per-level transfer, and the finalize/fold steps —
// while the engine owns everything the path/tree/scanstat trio used to
// triplicate (and the batch evaluators triplicated again).
//
// Execution model: lanes (laneState) are clustered into groups
// (famGroup), each group owning one Family instance and one
// lane-contiguous buffer layout. Solo evaluators are the one-lane,
// one-group special case, which keeps their outputs and observability
// byte-identical to a batch of one (golden_test.go pins this across
// the refactor). Per round, every group's live lanes draw fresh
// assignments; per phase q0, the engine masks cancelled lanes, retires
// lanes past their Gray prefix, and hands the survivors to the family
// as InitRow → Transfer* → Finalize.

import (
	"sync/atomic"

	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/obs"
)

// Family is one polynomial family (k-path, k-tree, scan-statistics,
// constrained motif) as seen by the sweep engine. One instance serves
// one lane group for the duration of a run; implementations keep their
// DP slabs as instance state between Alloc and Free.
type Family interface {
	// Kind names the family for diagnostics.
	Kind() string

	// NewAssignment derives one lane's randomness for a round — a pure
	// function of (lane seed, round, family tag), so distributed ranks
	// and batched lanes reproduce solo runs exactly.
	NewAssignment(n int, st *laneState, round int) *Assignment

	// BeginRound resets a lane's per-round accumulator.
	BeginRound(st *laneState)

	// CountPhases reports whether the engine charges phase spans and
	// per-lane phase counters for this family. The scan table keeps
	// its historical phase-less accounting; path/tree/motif count.
	CountPhases() bool

	// Alloc grabs the group's DP slabs for one round's sweep from the
	// options arena; Free returns them. The group's live lanes and
	// stride are fixed when Alloc runs.
	Alloc(e *groupRun)
	Free(e *groupRun)

	// InitRow computes the level-1 DP row for the phase's live lanes
	// (base values x_i(gray(q0+q)) and whatever the family layers on
	// them) and folds any lane whose polynomial is a single level.
	InitRow(e *groupRun)

	// Transfers is the number of per-level transfer steps for the
	// phase's live lane set (evaluated once per phase).
	Transfers(e *groupRun) int

	// Transfer runs transfer step ∈ [1, Transfers] — one DP level —
	// folding any lane that finishes at this level.
	Transfer(e *groupRun, step int)

	// Finalize folds whatever the transfer steps did not (families
	// whose lanes all finish at the last level fold here).
	Finalize(e *groupRun)

	// EndRound inspects a lane's round accumulator after a completed
	// sweep: families with found/not-found semantics mark the lane
	// found or done, table families fold the totals and run on.
	EndRound(st *laneState, round int)
}

// famGroup is one lane cluster sharing a Family instance and a
// lane-contiguous layout (lane i of the round's live set at element
// offset i·n2 of every vertex row, stride = live lanes × n2).
type famGroup struct {
	fam Family
	sts []*laneState // every lane of the group

	// per-round state, owned by the engine
	live      []*laneState // lanes active this round
	phaseLive []*laneState // lanes surviving the current phase's masks
	stride    int
	itersLive uint64 // deepest live lane's 2^k this round
	alloced   bool
}

// groupRun is the engine→family call context for one group: the graph,
// options, layout, and the current phase's live lanes.
type groupRun struct {
	g       *graph.Graph
	gr      *famGroup
	opt     Options
	n2      int
	q0      uint64
	live    []*laneState // live lanes of the current phase
	skipped *int64       // shared dead-cell counter, flushed per sweep
}

// liveWidth is the summed element width of the phase's live lanes —
// the per-level DP width the recorder charges.
func (e *groupRun) liveWidth() int64 {
	var w int64
	for _, st := range e.live {
		w += int64(st.nb)
	}
	return w
}

// levelElems is the analytic per-iteration element count of one DP
// level: Σdeg + n (see docs/OBSERVABILITY.md).
func levelElems(g *graph.Graph) int64 {
	return int64(2*g.NumEdges() + g.NumVertices())
}

// runGroups is the engine's round loop: per round, collect each
// group's active lanes, draw assignments, sweep the iteration space
// once for all groups jointly, then let each family judge its lanes'
// totals. A batch-wide context abort fails every unresolved lane open
// with the context error.
func runGroups(g *graph.Graph, groups []*famGroup, n2 int, opt Options) error {
	maxRounds := 0
	for _, gr := range groups {
		for _, st := range gr.sts {
			if st.roundsTotal > maxRounds {
				maxRounds = st.roundsTotal
			}
		}
	}
	n := g.NumVertices()
	var batchErr error
	var phasesDone int64 // cumulative across rounds, fed to opt.Progress
	for round := 0; round < maxRounds && batchErr == nil; round++ {
		activeTotal := 0
		for _, gr := range groups {
			gr.live = gr.live[:0]
			for _, st := range gr.sts {
				if !st.done && round < st.roundsTotal {
					gr.live = append(gr.live, st)
				}
			}
			activeTotal += len(gr.live)
		}
		if activeTotal == 0 {
			break
		}
		if err := opt.ctxErr(); err != nil {
			batchErr = err
			break
		}
		opt.obsSpan(obs.RoundName, round, "round")
		opt.Obs.Add(obs.Rounds, int64(activeTotal))
		for _, gr := range groups {
			for _, st := range gr.live {
				st.a = gr.fam.NewAssignment(n, st, round)
				gr.fam.BeginRound(st)
				st.roundsRun++
			}
		}
		err := sweepGroupsFrom(g, groups, n2, opt, &phasesDone)
		opt.obsEnd()
		if err != nil {
			batchErr = err
			break
		}
		for _, gr := range groups {
			for _, st := range gr.live {
				if st.done {
					continue // cancelled mid-round; the accumulator is void
				}
				gr.fam.EndRound(st, round)
			}
		}
	}
	if batchErr != nil {
		for _, gr := range groups {
			failOpen(gr.sts, batchErr)
		}
	}
	return batchErr
}

// sweepGroups runs one round's joint pass over the iteration space:
// phase q0 of every group with live work runs before any group
// advances to q0+n2, so interleaved groups share the sweep. Per group
// and phase the engine masks cancelled lanes (their LaneResult carries
// the context error; the rest of the batch runs on), retires lanes
// past their Gray prefix, and trims the final short phase, then calls
// the family's InitRow / Transfer / Finalize hooks.
func sweepGroups(g *graph.Graph, groups []*famGroup, n2 int, opt Options) error {
	var done int64
	return sweepGroupsFrom(g, groups, n2, opt, &done)
}

// sweepGroupsFrom is sweepGroups with an externally-owned cumulative
// phase counter, so the round loop reports run-wide progress through
// opt.Progress rather than per-sweep progress.
func sweepGroupsFrom(g *graph.Graph, groups []*famGroup, n2 int, opt Options, done *int64) error {
	var itersMax uint64
	anyAlloc := false
	for _, gr := range groups {
		gr.alloced = false
		if len(gr.live) == 0 {
			continue
		}
		gr.stride = len(gr.live) * n2
		var it uint64
		for i, st := range gr.live {
			st.off = i * n2
			if st.iters > it {
				it = st.iters
			}
		}
		gr.itersLive = it
		if it > itersMax {
			itersMax = it
		}
		gr.fam.Alloc(&groupRun{g: g, gr: gr, opt: opt, n2: n2})
		gr.alloced = true
		anyAlloc = true
	}
	if !anyAlloc {
		return nil
	}
	defer func() {
		for _, gr := range groups {
			if gr.alloced {
				gr.fam.Free(&groupRun{g: g, gr: gr, opt: opt, n2: n2})
				gr.alloced = false
			}
		}
	}()
	var skipped int64
	defer func() { opt.Obs.Add(obs.CellsSkipped, skipped) }()

	for q0 := uint64(0); q0 < itersMax; q0 += uint64(n2) {
		if err := opt.ctxErr(); err != nil {
			return err
		}
		anyLive := false
		for _, gr := range groups {
			if !gr.alloced || q0 >= gr.itersLive {
				continue
			}
			gr.phaseLive = gr.phaseLive[:0]
			for _, st := range gr.live {
				if st.done || q0 >= st.iters {
					continue // retired: answer already folded from its Gray prefix
				}
				if err := st.ctxErr(); err != nil {
					st.done, st.err = true, err // mask out; the rest keep running
					continue
				}
				st.nb = n2
				if rem := st.iters - q0; uint64(st.nb) > rem {
					st.nb = int(rem)
				}
				gr.phaseLive = append(gr.phaseLive, st)
			}
			if len(gr.phaseLive) == 0 {
				continue
			}
			anyLive = true
			e := &groupRun{g: g, gr: gr, opt: opt, n2: n2, q0: q0, live: gr.phaseLive, skipped: &skipped}
			count := gr.fam.CountPhases()
			if count {
				opt.obsSpan(obs.PhaseName, int(q0)/n2, "phase")
			}
			gr.fam.InitRow(e)
			// One cancellation point per DP level, so the latency of a
			// cancel or deadline does not grow with the phase width.
			for step, nT := 1, gr.fam.Transfers(e); step <= nT; step++ {
				if err := opt.ctxErr(); err != nil {
					if count {
						opt.obsEnd()
					}
					return err
				}
				if e.dropCancelled(); len(e.live) == 0 {
					break
				}
				gr.fam.Transfer(e, step)
			}
			gr.fam.Finalize(e)
			if count {
				// Only finished phases count: Phases < TotalPhases is the
				// proof of an unfinished sweep, mid-phase cancels included.
				for _, st := range e.live {
					st.phases++
				}
				opt.Obs.Add(obs.Phases, 1)
				opt.obsEnd()
				*done++
				if opt.Progress != nil {
					opt.Progress(*done)
				}
			}
		}
		if !anyLive {
			break
		}
	}
	return nil
}

// dropCancelled masks out of the running phase every live lane whose
// own context has expired: the lane resolves to its context error and
// the rest of the group runs on (its slab columns are simply no longer
// updated or folded).
func (e *groupRun) dropCancelled() {
	kept := e.live[:0]
	for _, st := range e.live {
		if err := st.ctxErr(); err != nil {
			st.done, st.err = true, err
			continue
		}
		kept = append(kept, st)
	}
	e.live = kept
}

// addSkipped folds a worker's dead-cell count into the sweep counter.
func (e *groupRun) addSkipped(sk int64) {
	if sk != 0 {
		atomic.AddInt64(e.skipped, sk)
	}
}

// soloLane builds the one-lane state through which the sequential
// entry points reuse the engine: a batch of one is byte-identical to
// the historical solo evaluators.
func soloLane(k int, opt Options) *laneState {
	st := &laneState{
		BatchLane: BatchLane{K: k, Seed: opt.Seed, Epsilon: opt.Epsilon, Rounds: opt.Rounds},
		k:         k,
		iters:     uint64(1) << uint(k),
	}
	st.roundsTotal = opt.RoundsFor(k)
	return st
}
