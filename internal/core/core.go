// Package core implements MIDAS itself — the distributed multilinear
// detection algorithm of the paper's Section IV — on top of the
// internal/comm substrate.
//
// The world of N ranks is split into a = N/N1 *phase groups* of N1
// ranks (comm.Split). All groups share one deterministic partition of
// the graph into N1 parts; rank r of a group owns part r. The 2^k
// iterations are cut into phases of N2 iterations; phase t is handled
// by group t mod a. Within a phase, the group evaluates the polynomial
// bottom-up: each DP level updates the owned vertices' iteration
// vectors and then exchanges boundary vectors with neighboring parts in
// one aggregated message per (source, destination) pair — the paper's
// communication batching. Per-phase-step world barriers and the final
// XOR all-reduce mirror Algorithm 2's MPIBarrier/MPIReduce.
//
// That schedule is written once, in driver.go: sweep runs the rounds
// (cancellation check, round span, assignment, phase steps, all-reduce,
// verdict) and phaseSteps the phase steps of one round (phase span,
// fill, the levels with their spans, charges and halos, fold, step
// synchronization, progress report). Each evaluator — path, tree,
// motif, scan, max-weight — is a family: its slabs, its level-1 fill at
// every slot, its per-level kernel over the owned vertices, which slabs
// it exchanges under which tags, and which rows hold the finished
// polynomial. Its Run function builds the plan, picks the assignment
// per round and says what a round's world totals mean: the detection
// families stop at the first non-zero total, scan ORs every round into
// its table, max-weight keeps the highest live weight.
//
// Everything random (vertex scalars, fingerprints, partition seeds) is
// derived from the configured seed, so all ranks construct identical
// assignments with zero communication.
//
// Per-rank compute time is modeled by counting DP operations and
// converting them with constants calibrated once on this machine
// (costmodel.go) — wall-clock measurement would be inflated by
// goroutine preemption when many ranks share one core. Combined with
// the α–β message costs in internal/comm, the maximum clock after a run
// is the modeled makespan used by the scaling experiments (DESIGN.md
// §3).
package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/gf"
	"github.com/midas-hpc/midas/internal/graph"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
	"github.com/midas-hpc/midas/internal/partition"
)

// Config parameterizes a MIDAS run. Every rank must pass identical
// values.
type Config struct {
	K       int
	N1      int // graph parts per phase group; must divide world size; 0 → world size
	N2      int // iterations per phase; 0 → planned (mld.PlanN2); capped at 2^k
	Seed    uint64
	Epsilon float64          // target failure probability (default 0.05)
	Rounds  int              // 0 → derived from Epsilon
	Scheme  partition.Scheme // partitioner; "" → block

	NoFingerprints bool // ablation: the unsound verbatim pseudo-code
	NoGray         bool // ablation: recompute base values per iteration
	NoTiming       bool // skip wall-time clock advancement (pure answers)

	// Ctx, when non-nil, makes the run cancellable: between phase steps
	// the ranks agree on the cancellation state with a one-word
	// all-reduce (replacing the plain barrier, so every rank leaves the
	// collective schedule at the same step) and return the context's
	// error. Nil — the default — keeps the exact barrier protocol, so
	// message-count-pinned tests and cost models are unchanged. All
	// ranks must receive the same context. The serving layer
	// (internal/serve) threads each request's deadline context here.
	Ctx context.Context

	// Part, when non-nil, is a precomputed partition to use instead of
	// running the configured Scheme — the mechanism by which a resident
	// service reuses one partition across many queries on the same
	// graph. It must have exactly N1 parts (after N1 defaulting) and
	// cover the graph's vertices; its Members cache must already be
	// materialized if ranks share the pointer concurrently (call
	// Members(i) for every part once before handing it out).
	Part *partition.Partition

	// Progress, when non-nil, receives global phase progress for the
	// current round's iteration sweep: after each collective phase
	// step, world rank 0 (only — one reporter per world) calls it with
	// the number of phases all groups have finished jointly and the
	// round's total. The serving layer threads each query's trace
	// updater here; the callback runs on rank 0's execution goroutine
	// between collectives, so keep it cheap and non-blocking.
	Progress func(done, total int64)
}

// withDefaults resolves the unset knobs. vertices and slabs are the
// shape mld.PlanN2 plans the phase width from: the graph's global
// vertex count (not this rank's share, so every rank agrees) and the
// family's slab count.
func (cfg Config) withDefaults(worldSize, vertices, slabs int) (Config, error) {
	if cfg.N1 == 0 {
		cfg.N1 = worldSize
	}
	if cfg.N1 < 1 || cfg.N1 > worldSize || worldSize%cfg.N1 != 0 {
		return cfg, fmt.Errorf("core: N1=%d must divide world size %d", cfg.N1, worldSize)
	}
	if cfg.Scheme == "" {
		cfg.Scheme = partition.SchemeBlock
	}
	cfg.N2 = mld.PlanN2(cfg.N2, vertices, cfg.K, slabs)
	return cfg, nil
}

func (cfg Config) mldOptions() mld.Options {
	return mld.Options{
		Seed: cfg.Seed, Epsilon: cfg.Epsilon, Rounds: cfg.Rounds,
		N2: cfg.N2, NoFingerprints: cfg.NoFingerprints, NoGray: cfg.NoGray,
	}
}

// plan is the per-rank execution plan: the partition, this rank's owned
// vertex set, ghost slots for remote neighbors, and the symmetric halo
// exchange lists. All ranks derive identical plans deterministically.
type plan struct {
	cfg    Config
	g      *graph.Graph
	group  *comm.Comm // the phase group communicator (size N1)
	world  *comm.Comm
	groups int // number of phase groups a = N/N1
	gid    int // this rank's group index

	part   *partition.Partition
	myPart int
	owned  []int32 // global ids, sorted
	slotOf []int32 // global id → value-buffer slot; -1 when unused
	vertOf []int32 // slot → global id
	nSlots int     // owned + ghosts

	// halo lists per peer part, sorted by part id then vertex id.
	sendTo   []haloList // our owned boundary vertices each peer needs
	recvFrom []haloList // peer-owned vertices our updates need

	computeSecs float64 // accumulated modeled/measured compute time (profiling)
	sumDegOwned int     // Σ_{v owned} deg(v): the per-level work measure

	rec *obs.Recorder // the world's recorder; nil when observability is off
}

type haloList struct {
	part  int
	verts []int32 // global ids, ascending
	slots []int32 // value-buffer slots of verts
}

func buildPlan(world *comm.Comm, g *graph.Graph, cfg Config, slabs int) (*plan, error) {
	cfg, err := cfg.withDefaults(world.Size(), g.NumVertices(), slabs)
	if err != nil {
		return nil, err
	}
	world.SetPhase("setup")
	p := &plan{cfg: cfg, g: g, world: world, rec: world.Recorder()}
	p.groups = world.Size() / cfg.N1
	p.gid = world.Rank() / cfg.N1
	p.group = world.Split(p.gid, world.Rank()%cfg.N1)
	p.myPart = p.group.Rank()

	part := cfg.Part
	if part != nil {
		if part.Parts != cfg.N1 {
			return nil, fmt.Errorf("core: precomputed partition has %d parts, want N1=%d", part.Parts, cfg.N1)
		}
		if len(part.Of) != g.NumVertices() {
			return nil, fmt.Errorf("core: precomputed partition covers %d vertices, graph has %d", len(part.Of), g.NumVertices())
		}
	} else {
		part, err = partition.ByScheme(cfg.Scheme, g, cfg.N1, cfg.Seed^0x70a3d70a3d70a3d7)
		if err != nil {
			return nil, err
		}
	}
	p.part = part
	p.owned = append([]int32(nil), part.Members(p.myPart)...)
	sort.Slice(p.owned, func(i, j int) bool { return p.owned[i] < p.owned[j] })

	p.slotOf = make([]int32, g.NumVertices())
	for i := range p.slotOf {
		p.slotOf[i] = -1
	}
	for s, v := range p.owned {
		p.slotOf[v] = int32(s)
	}

	sendSets := make(map[int]map[int32]bool)
	ghostSets := make(map[int]map[int32]bool)
	for _, v := range p.owned {
		for _, u := range g.Neighbors(v) {
			pu := int(part.Of[u])
			if pu == p.myPart {
				continue
			}
			if sendSets[pu] == nil {
				sendSets[pu] = make(map[int32]bool)
			}
			sendSets[pu][v] = true
			if ghostSets[pu] == nil {
				ghostSets[pu] = make(map[int32]bool)
			}
			ghostSets[pu][u] = true
		}
	}
	next := int32(len(p.owned))
	peerParts := make([]int, 0, len(ghostSets))
	for pu := range ghostSets {
		peerParts = append(peerParts, pu)
	}
	sort.Ints(peerParts)
	for _, pu := range peerParts {
		verts := setToSorted(ghostSets[pu])
		slots := make([]int32, len(verts))
		for i, u := range verts {
			if p.slotOf[u] < 0 {
				p.slotOf[u] = next
				next++
			}
			slots[i] = p.slotOf[u]
		}
		p.recvFrom = append(p.recvFrom, haloList{part: pu, verts: verts, slots: slots})
	}
	for _, pu := range peerParts {
		verts := setToSorted(sendSets[pu])
		slots := make([]int32, len(verts))
		for i, v := range verts {
			slots[i] = p.slotOf[v]
		}
		p.sendTo = append(p.sendTo, haloList{part: pu, verts: verts, slots: slots})
	}
	p.nSlots = int(next)
	p.vertOf = make([]int32, p.nSlots)
	for v, s := range p.slotOf {
		if s >= 0 {
			p.vertOf[s] = int32(v)
		}
	}
	for _, v := range p.owned {
		p.sumDegOwned += g.Degree(v)
	}
	return p, nil
}

// reportProgress surfaces global sweep progress to Config.Progress
// from world rank 0 after phase step s: once syncStep has returned,
// every group has finished its s-th phase, so (s+1)·groups phases
// (clamped to the sweep total) are done world-wide.
func (p *plan) reportProgress(s, numPhases uint64) {
	if p.cfg.Progress == nil || p.world.Rank() != 0 {
		return
	}
	done := (s + 1) * uint64(p.groups)
	if done > numPhases {
		done = numPhases
	}
	p.cfg.Progress(int64(done), int64(numPhases))
}

// syncStep is the end-of-phase-step world synchronization (Algorithm 2
// line 12). Without a context it is the plain barrier. With one, it
// becomes a one-word OR all-reduce of the local cancellation flag, so
// every rank observes the decision at the same step and the collective
// schedule never diverges (a local-only context check would leave the
// other ranks blocked in the next collective); a nonzero result returns
// the context's error on every rank.
func (p *plan) syncStep() error {
	if p.cfg.Ctx == nil {
		p.world.Barrier()
		return nil
	}
	return p.checkCtx()
}

// checkCtx is the collective cancellation probe on its own: a no-op
// without a context, otherwise the OR all-reduce described on syncStep.
// Round loops call it before starting a round's work.
func (p *plan) checkCtx() error {
	if p.cfg.Ctx == nil {
		return nil
	}
	var flag uint64
	if p.cfg.Ctx.Err() != nil {
		flag = 1
	}
	if p.world.AllreduceOr([]uint64{flag})[0] != 0 {
		if err := p.cfg.Ctx.Err(); err != nil {
			return err
		}
		// Another rank saw the cancellation first; ours may race a hair
		// behind, but the run is cancelled either way.
		return context.Canceled
	}
	return nil
}

// advanceCompute charges dt modeled seconds of compute to this rank.
func (p *plan) advanceCompute(dt float64) {
	if p.cfg.NoTiming {
		return
	}
	p.world.Clock().Advance(dt)
	p.computeSecs += dt
}

// countDPOps charges n field-element operations to the recorder — the
// measured counterpart of the modeled seconds advanceCompute charges
// (docs/OBSERVABILITY.md explains how the two relate). No-op when
// observability is off.
func (p *plan) countDPOps(n float64) { p.rec.Add(obs.DPOps, int64(n)) }

// span opens a recorder span named by one of obs's cached name helpers,
// evaluating the name only when observability is on — so the disabled
// path stays allocation-free even for indices past the name cache
// (round and phase spans are the exception: their names also become
// the communicator's failure-phase label via SetPhase, so a rank that
// dies mid-run reports *where* — see comm.RankError). Pair with
// endSpan.
func (p *plan) span(name func(int) string, idx int, cat string) {
	if cat == "round" || cat == "phase" {
		p.world.SetPhase(name(idx))
	}
	if p.rec.Enabled() {
		p.rec.Begin(name(idx), cat)
	}
}

func (p *plan) endSpan() { p.rec.End() }

func setToSorted(s map[int32]bool) []int32 {
	out := make([]int32, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// exchange sends this rank's boundary vectors for DP level `level` and
// fills the ghost slots with the peers' values. vals is the flat value
// buffer (nSlots × stride), nb the live width of each vector. tag
// distinguishes exchanges so protocol slips fail loudly (it equals the
// level for the path/tree DPs but carries a weight index too for the
// weight-stratified ones, which call exchange once per weight class).
func (p *plan) exchange(vals []gf.Elem, stride, nb, level, tag int) {
	p.span(obs.HaloName, level, "halo")
	haloStart := p.world.Clock().Now()
	// all sends first (non-blocking), then receives: symmetric and
	// deadlock-free.
	for _, h := range p.sendTo {
		payload := make([]byte, 2*nb*len(h.slots))
		off := 0
		for _, s := range h.slots {
			vec := vals[int(s)*stride : int(s)*stride+nb]
			for _, e := range vec {
				payload[off] = byte(e)
				payload[off+1] = byte(e >> 8)
				off += 2
			}
		}
		p.group.Send(h.part, tag, payload)
		p.rec.Add(obs.HaloMsgs, 1)
		p.rec.Add(obs.HaloBytes, int64(len(payload)))
		p.rec.AddHaloLevel(level, int64(len(payload)))
	}
	for _, h := range p.recvFrom {
		payload := p.group.Recv(h.part, tag)
		if len(payload) != 2*nb*len(h.slots) {
			panic(fmt.Sprintf("core: halo message from part %d has %d bytes, want %d",
				h.part, len(payload), 2*nb*len(h.slots)))
		}
		off := 0
		for _, s := range h.slots {
			vec := vals[int(s)*stride : int(s)*stride+nb]
			for q := range vec {
				vec[q] = gf.Elem(payload[off]) | gf.Elem(payload[off+1])<<8
				off += 2
			}
		}
	}
	p.rec.Observe(obs.HistHaloExchange, p.world.Clock().Now()-haloStart)
	p.endSpan()
}

// phases returns the number of phases for 2^k iterations at width N2.
func (p *plan) phases(k int) uint64 { return uint64(mld.PlannedPhases(k, p.cfg.N2)) }

// Profile is a rank's time and traffic breakdown for one run: the
// measured compute time, the rank's total virtual time (compute plus
// modeled communication and waiting), and its traffic. The gap between
// TotalSecs and ComputeSecs is the communication share the paper's
// Section VI discusses.
type Profile struct {
	ComputeSecs float64
	TotalSecs   float64
	MsgsSent    int64
	BytesSent   int64
}

// RunPathProfiled is RunPath returning this rank's Profile.
func RunPathProfiled(world *comm.Comm, g *graph.Graph, cfg Config) (bool, Profile, error) {
	clock0 := world.Clock().Now()
	stats0 := *world.Stats()
	if err := mld.ValidateK(cfg.K); err != nil {
		return false, Profile{}, err
	}
	if cfg.K > g.NumVertices() {
		return false, Profile{}, nil
	}
	p, err := buildPlan(world, g, cfg, mld.PathSlabs)
	if err != nil {
		return false, Profile{}, err
	}
	answer, err := p.detect(newPathFamily(p), func(round int) *mld.Assignment {
		return mld.NewPathAssignment(g.NumVertices(), cfg.K, cfg.Seed, round)
	})
	if err != nil {
		return false, Profile{}, err
	}
	prof := Profile{
		ComputeSecs: p.computeSecs,
		TotalSecs:   world.Clock().Now() - clock0,
		MsgsSent:    world.Stats().MsgsSent - stats0.MsgsSent,
		BytesSent:   world.Stats().BytesSent - stats0.BytesSent,
	}
	return answer, prof, nil
}
