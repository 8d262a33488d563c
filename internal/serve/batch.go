package serve

import (
	"strconv"
	"sync"
	"time"

	"github.com/midas-hpc/midas/internal/obs"
)

// Admission batching: when Config.BatchWindow > 0, a worker that picks
// up a ranks ≤ 1 query does not execute it immediately. It becomes the
// batch leader: for up to one window it keeps harvesting compatible
// queued queries (same graph, same kind — see compatible) and assembles
// every singleflight *leader* among them into a lane. The batch then
// runs as a schedule of solo sweeps, lanes in parallel (executeBatch);
// distributed queries are never batched. Results fan back out through
// each lane's flight, so cache fills, singleflight followers, and
// per-query cancellation behave exactly as in the single-query path; a
// lane whose last requester leaves mid-flight stops while the other
// lanes run on.
// docs/BATCHING.md is the full story.

// laneJob is one batch lane: the job that leads its flight plus the
// flight the result fans back through.
type laneJob struct {
	j *job
	f *flight
}

// compatible reports whether cand can share a batch with lead: same
// graph content, same kind and same Ranks (so a distributed query is
// never harvested into a batch). Seeds, k, rounds, epsilon, zmax,
// templates, N2 and Workers may all differ: each lane runs its own solo
// sweep, and the batch only splits the leader's Workers across them.
func compatible(lead, cand *job) bool {
	a, b := lead.Req, cand.Req
	return lead.digest == cand.digest && a.Graph == b.Graph && a.Kind == b.Kind && a.Ranks == b.Ranks
}

// batchable reports whether a query may lead or join a batch at all.
// Distributed queries never do: each runs solo through execute, so the
// cluster's lease runner sees every one of them.
func batchable(j *job) bool {
	return j.Req.Ranks <= 1
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
// batch. The override lives on a copy, so the job, its cache key and
// its view keep the request as submitted.
func (s *Server) executeLane(lj *laneJob, workers int) {
	req := lj.j.Req
	if workers > 0 {
		lane := *req
		lane.Workers = workers
		req = &lane
	}
	start := time.Now()
	if tr := lj.j.trace; tr != nil {
		tr.beginDP(req.plannedPhases(lj.j.vertices))
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

// executeBatch runs ≥2 assembled lanes. A batch is a schedule, not a
// layout: lanes share no DP state, so one strided sweep over all of
// them only narrows every lane's phase width and makes each caller wait
// for the slowest. Instead P = min(leader's Workers, lanes) goroutines
// pull the lanes in admission order and run each as a solo sweep on
// Workers/P workers (executeLane) — its own planned width, progress,
// and cancellation on its flight context, so a lane whose requesters
// all left stops while the others run on. All lanes are joined before
// returning: runBatched's inflight count, and with it the drain, covers
// the whole batch.
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
	feed := make(chan *laneJob, len(lanes))
	for _, lj := range lanes {
		feed <- lj
	}
	close(feed)
	workers := max(lanes[0].j.Req.Workers, 1)
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
