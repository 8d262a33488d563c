package serve

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Job states.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// job is one admitted query: its identity key, deadline context, and
// terminal result. Jobs survive in the table after finishing so
// GET /v1/jobs/{id} can report the outcome of async queries.
type job struct {
	ID       string
	Key      string
	Req      *QueryRequest
	digest   uint64 // content digest of the named graph (batch compatibility)
	vertices int    // its vertex count (the phase plan's n)

	// trace is the job's query trace; finishHook (the server's
	// completeTrace) runs exactly once when the job reaches a terminal
	// state, on whichever goroutine finished it. Both are set before
	// the job enters the queue and never mutated after, so workers read
	// them without the job lock.
	trace      *QueryTrace
	finishHook func(*job)

	ctx    context.Context
	cancel context.CancelFunc

	enqueued time.Time
	done     chan struct{} // closed at terminal state

	mu       sync.Mutex
	status   string
	res      *Result
	err      error
	started  time.Time
	finished time.Time
}

// setStatus moves the job to a non-terminal state.
func (j *job) setStatus(s string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == StatusDone || j.status == StatusFailed || j.status == StatusCancelled {
		return
	}
	j.status = s
	if s == StatusRunning && j.started.IsZero() {
		j.started = time.Now()
	}
}

// finish moves the job to a terminal state exactly once.
func (j *job) finish(status string, res *Result, err error) {
	j.mu.Lock()
	if j.status == StatusDone || j.status == StatusFailed || j.status == StatusCancelled {
		j.mu.Unlock()
		return
	}
	j.status, j.res, j.err = status, res, err
	j.finished = time.Now()
	j.mu.Unlock()
	if j.finishHook != nil {
		j.finishHook(j)
	}
	close(j.done)
	j.cancel()
}

// traceStage appends a stage to the job's trace (no-op untraced).
func (j *job) traceStage(name string) {
	if j.trace != nil {
		j.trace.stage(name)
	}
}

// traceDisposition records how the job's query is being answered.
func (j *job) traceDisposition(d string, lanes int) {
	if j.trace != nil {
		j.trace.setDisposition(d, lanes)
	}
}

// view snapshots the job for the API.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{ID: j.ID, Status: j.status, Result: j.res}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		v.RunMillis = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	}
	return v
}

// jobTable issues ids and retains finished jobs up to a bound (oldest
// finished jobs are dropped first; running jobs are never dropped).
type jobTable struct {
	mu     sync.Mutex
	next   int64
	m      map[string]*job
	maxLen int
}

func newJobTable(maxLen int) *jobTable {
	return &jobTable{m: make(map[string]*job), maxLen: maxLen}
}

func (t *jobTable) newJob(base context.Context, key string, req *QueryRequest, timeout time.Duration) *job {
	ctx, cancel := context.WithCancel(base)
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(base, timeout)
	}
	t.mu.Lock()
	t.next++
	j := &job{
		ID: "j" + strconv.FormatInt(t.next, 10), Key: key, Req: req,
		ctx: ctx, cancel: cancel,
		enqueued: time.Now(), done: make(chan struct{}), status: StatusQueued,
	}
	t.m[j.ID] = j
	t.trimLocked()
	t.mu.Unlock()
	return j
}

func (t *jobTable) get(id string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.m[id]
	return j, ok
}

func (t *jobTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// trimLocked evicts the oldest terminal jobs while over the bound.
func (t *jobTable) trimLocked() {
	if t.maxLen <= 0 || len(t.m) <= t.maxLen {
		return
	}
	type fin struct {
		id string
		at time.Time
	}
	var finished []fin
	for id, j := range t.m {
		j.mu.Lock()
		term := j.status == StatusDone || j.status == StatusFailed || j.status == StatusCancelled
		at := j.finished
		j.mu.Unlock()
		if term {
			finished = append(finished, fin{id, at})
		}
	}
	sort.Slice(finished, func(i, k int) bool { return finished[i].at.Before(finished[k].at) })
	for _, f := range finished {
		if len(t.m) <= t.maxLen {
			break
		}
		delete(t.m, f.id)
	}
}
