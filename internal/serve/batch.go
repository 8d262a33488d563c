package serve

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"github.com/midas-hpc/midas/internal/comm"
	"github.com/midas-hpc/midas/internal/core"
	"github.com/midas-hpc/midas/internal/mld"
	"github.com/midas-hpc/midas/internal/obs"
	"github.com/midas-hpc/midas/internal/partition"
)

// Admission batching: when Config.BatchWindow > 0, a worker that picks
// up a query does not execute it immediately. It becomes the batch
// leader: for up to one window it keeps harvesting compatible queued
// queries (same graph, same kind, same world shape — see compatible)
// and assembles every singleflight *leader* among them into a lane.
// A ranks ≤ 1 batch then runs as a schedule of solo sweeps, lanes in
// parallel; a ranks > 1 batch runs as one joint core.RunPathBatch sweep
// (executeBatch). Results fan back out through each lane's flight, so
// cache fills, singleflight followers, and per-query cancellation
// behave exactly as in the single-query path; a lane whose last
// requester leaves mid-flight stops while the other lanes run on.
// docs/BATCHING.md is the full story.

// laneJob is one batch lane: the job that leads its flight plus the
// flight the result fans back through.
type laneJob struct {
	j *job
	f *flight
}

// compatible reports whether cand can share a batched DP execution
// with lead: same graph content, same kind, and — for distributed
// queries — the same world shape, since the batch runs on one
// in-process world with one partition. Seeds, k, rounds, epsilon,
// zmax, templates, N2 and Workers may all differ: each lane keeps its
// own assignment, and the batch adopts the leader's core budget
// (Workers; N2 too when distributed — answers are independent of
// both). Distributed batching covers paths only; other kinds and
// shapes fall back to solo runs.
func compatible(lead, cand *job) bool {
	a, b := lead.Req, cand.Req
	if lead.digest != cand.digest || a.Graph != b.Graph || a.Kind != b.Kind {
		return false
	}
	if a.Ranks != b.Ranks {
		return false
	}
	if a.Ranks > 1 {
		if a.Kind != KindPath {
			return false
		}
		if a.N1 != b.N1 || a.Scheme != b.Scheme {
			return false
		}
	}
	return true
}

// batchable reports whether a query may lead or join a batch at all.
func batchable(j *job) bool {
	return j.Req.Ranks <= 1 || j.Req.Kind == KindPath // core batches paths only
}

// runBatched is the worker's entry point when admission batching is
// on: prep the first job, harvest compatible peers for one window,
// then execute. Occupancy 1 falls through to the ordinary solo path,
// so an idle service behaves exactly as with batching off (modulo the
// window of added latency).
func (s *Server) runBatched(first *job) {
	lead, ok := s.prepLane(first)
	if !ok {
		return // served from cache, joined a flight, or already expired
	}
	// Count the assembly window as in-flight work so drain waits for it.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	hold := time.Now()
	lanes := []*laneJob{lead}
	if !s.draining.Load() {
		lanes = s.collectLanes(lanes)
	}
	s.rec.Observe(obs.HistServeBatchAssembly, time.Since(hold).Seconds())
	if len(lanes) == 1 {
		s.executeLane(lead, 0)
		return
	}
	s.logger.Debug("batch assembled",
		"lanes", len(lanes), "kind", lead.j.Req.Kind, "graph", lead.j.Req.Graph,
		"holdMillis", millis(hold, time.Now()))
	s.executeBatch(lanes)
}

// collectLanes harvests compatible queued jobs until the batch window
// closes or the batch is full. The queue is polled rather than
// subscribed: a few sweeps per window keep the leader responsive to
// late arrivals without a wakeup protocol.
func (s *Server) collectLanes(lanes []*laneJob) []*laneJob {
	lead := lanes[0].j
	deadline := time.NewTimer(s.cfg.BatchWindow)
	defer deadline.Stop()
	poll := s.cfg.BatchWindow / 8
	if poll <= 0 {
		poll = time.Millisecond
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for len(lanes) < s.cfg.BatchMaxLanes {
		for _, cj := range s.queue.take(func(c *job) bool { return compatible(lead, c) },
			s.cfg.BatchMaxLanes-len(lanes)) {
			if lj, ok := s.prepLane(cj); ok {
				lanes = append(lanes, lj)
			}
		}
		if len(lanes) >= s.cfg.BatchMaxLanes {
			break
		}
		select {
		case <-deadline.C:
			return lanes
		case <-tick.C:
		}
	}
	return lanes
}

// prepLane takes an admitted job through the same cache/singleflight
// gauntlet as the solo path. ok=false means the job was fully handled
// here (cache hit, flight follower, expired); ok=true means the job
// leads a fresh flight and must be executed — as a batch lane or solo.
func (s *Server) prepLane(j *job) (*laneJob, bool) {
	j.traceStage(StageAdmitted)
	if err := j.ctx.Err(); err != nil {
		s.finishErr(j, nil, err) // expired while queued
		return nil, false
	}
	s.rec.Observe(obs.HistServeQueueWait, time.Since(j.enqueued).Seconds())
	if res, ok := s.cache.get(j.Key); ok {
		s.rec.Add(obs.ServeCacheHits, 1)
		s.rec.Add(obs.ServeCompleted, 1)
		j.traceDisposition(DispCacheHit, 0)
		j.traceStage(StageCacheHit)
		j.finish(StatusDone, res.cachedCopy(), nil)
		return nil, false
	}
	f, leader := s.flights.join(s.baseCtx, j.Key)
	s.followers.Add(1)
	go s.resolve(j, f)
	if !leader {
		s.rec.Add(obs.ServeSingleflightShared, 1)
		j.traceDisposition(DispSingleflight, 0)
		j.traceStage(StageSingleflightJoined)
		j.setStatus(StatusRunning)
		return nil, false
	}
	s.rec.Add(obs.ServeCacheMisses, 1)
	j.traceDisposition(DispSolo, 0)
	j.setStatus(StatusRunning)
	return &laneJob{j: j, f: f}, true
}

// executeLane runs a flight-leader job's own sweep and answers it the
// moment the sweep ends: the occupancy-1 tail of runBatched, the
// no-batching worker path (runJob builds the same laneJob), and — with
// workers > 0 standing in for the request's Workers — one lane of a
// ranks ≤ 1 batch. The override lives on a copy, so the job, its cache
// key and its view keep the request as submitted.
func (s *Server) executeLane(lj *laneJob, workers int) {
	req := lj.j.Req
	if workers > 0 {
		lane := *req
		lane.Workers = workers
		req = &lane
	}
	start := time.Now()
	if tr := lj.j.trace; tr != nil {
		tr.beginDP(req.plannedPhases(lj.j.vertices, 1))
	}
	s.logger.Debug("sweep started", "jobId", lj.j.ID, "kind", req.Kind, "k", req.K, "ranks", req.Ranks)
	res, err := s.execute(lj.f.ctx, req, lj.j.trace)
	s.rec.Observe(obs.HistServeQueryLatency, time.Since(start).Seconds())
	s.publish(lj, res, err)
}

// publish ends a lane: backfill the trace's dp counters, cache a
// success, and release everyone waiting on the flight.
func (s *Server) publish(lj *laneJob, res *Result, err error) {
	if res != nil && lj.j.trace != nil {
		lj.j.trace.setDPResult(res.Phases, res.TotalPhases)
	}
	if err == nil {
		s.cache.put(lj.j.Key, res, res.size())
	}
	s.flights.finish(lj.f, res, err)
}

// executeBatch runs ≥2 assembled lanes. In one process (ranks ≤ 1) a
// batch is a schedule, not a layout: lanes share no DP state, so one
// strided sweep over all of them only narrows every lane's phase width
// and makes each caller wait for the slowest. Instead P = min(leader's
// Workers, lanes) goroutines pull the lanes in admission order and run
// each as a solo sweep on Workers/P workers (executeLane) — its own
// planned width, progress, and cancellation on its flight context, so
// a lane whose requesters all left stops while the others run on.
// Ranks > 1 keeps the joint sweep, where batching saves messages. All
// lanes are joined before returning: runBatched's inflight count, and
// with it the drain, covers the whole batch.
func (s *Server) executeBatch(lanes []*laneJob) {
	s.rec.Add(obs.ServeBatches, 1)
	s.rec.Add(obs.ServeBatchLanes, int64(len(lanes)))
	s.rec.Observe(obs.HistServeBatchOccupancy, float64(len(lanes)))
	laneDetail := strconv.Itoa(len(lanes)) + " lanes"
	for _, lj := range lanes {
		lj.j.traceDisposition(DispBatchedLane, len(lanes))
		if tr := lj.j.trace; tr != nil {
			tr.stageDetail(StageBatchAssembled, laneDetail)
		}
	}
	first := lanes[0].j.Req
	if first.Ranks > 1 {
		s.executeBatchDistributed(lanes)
		return
	}
	feed := make(chan *laneJob, len(lanes))
	for _, lj := range lanes {
		feed <- lj
	}
	close(feed)
	workers := max(first.Workers, 1)
	p := min(workers, len(lanes))
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lj := range feed {
				start := time.Now()
				s.executeLane(lj, workers/p)
				s.rec.Observe(obs.HistServeLaneCost, time.Since(start).Seconds())
			}
		}()
	}
	wg.Wait()
}

// executeBatchDistributed runs path lanes as one joint sweep
// (batchDistributed) and fans the per-lane results back through their
// flights when it ends. Each lane's context is its flight's, so a dead
// lane is masked out (LaneResult.Err = context.Canceled) while the
// batch as a whole runs under the server's lifetime context.
func (s *Server) executeBatchDistributed(lanes []*laneJob) {
	first := lanes[0].j.Req
	blanes := make([]mld.BatchLane, len(lanes))
	for i, lj := range lanes {
		req := lj.j.Req
		if tr := lj.j.trace; tr != nil {
			tr.beginDP(req.plannedPhases(lj.j.vertices, len(lanes)))
		}
		blanes[i] = mld.BatchLane{
			K: req.K, Seed: req.Seed, Epsilon: req.Epsilon, Rounds: req.Rounds,
			Ctx: lj.f.ctx,
		}
	}
	start := time.Now()
	var results []mld.LaneResult
	entry, err := s.registry.get(first.Graph) // fails if evicted since admission
	if err == nil {
		results, err = s.batchDistributed(entry, first, blanes)
	}
	if results == nil && err == nil {
		err = errors.New("serve: batch produced no results")
	}
	wall := time.Since(start).Seconds()
	for i, lj := range lanes {
		s.rec.Observe(obs.HistServeLaneCost, wall/float64(len(lanes)))
		s.rec.Observe(obs.HistServeQueryLatency, wall)
		if results == nil {
			s.publish(lj, nil, err)
			continue
		}
		lr := results[i]
		s.publish(lj, &Result{
			Kind: KindPath, Found: lr.Found,
			Rounds: lr.Rounds, Phases: lr.Phases, TotalPhases: lr.TotalPhases,
		}, lr.Err)
	}
}

// batchDistributed runs the lanes on one in-process world via
// core.RunPathBatch, with the graph's cached partition (answers are
// partition-independent, so every lane matches its solo run).
func (s *Server) batchDistributed(entry *graphEntry, first *QueryRequest, blanes []mld.BatchLane) ([]mld.LaneResult, error) {
	scheme := partition.Scheme(first.Scheme)
	if scheme == "" {
		scheme = partition.SchemeBlock
	}
	n1 := first.N1
	if n1 <= 0 {
		n1 = first.Ranks
	}
	part, err := entry.partitionFor(scheme, n1)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		N1: n1, N2: first.N2, Seed: first.Seed, Scheme: scheme,
		Ctx: s.baseCtx, Part: part, NoTiming: true,
	}
	var results []mld.LaneResult
	run := func(c *comm.Comm) error {
		res, rerr := core.RunPathBatch(c, entry.G, cfg, core.BatchSpec{Lanes: blanes})
		if c.Rank() == 0 {
			results = res
		}
		return rerr
	}
	err = comm.RunLocal(first.Ranks, comm.CostModel{}, run)
	// Unwrap the world aggregation so clients see the cause directly.
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			err = context.DeadlineExceeded
		} else if errors.Is(err, context.Canceled) {
			err = context.Canceled
		}
	}
	return results, err
}
