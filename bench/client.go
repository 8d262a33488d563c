package main

// The load generator's side of the wire: a cold-started server, the HTTP
// calls against it, and the answer checker.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"github.com/midas-hpc/midas/internal/serve"
	"github.com/midas-hpc/midas/internal/store"
)

// queryTimeout fails a query that has no terminal answer by then.
const queryTimeout = 60 * time.Second

// answer is the part of a result that must not depend on how the query
// was executed: sequential, served, batched or distributed.
type answer struct {
	Found bool     `json:"found"`
	Table [][]bool `json:"table,omitempty"`
}

func (a answer) sig() string {
	b, _ := json.Marshal(a) // bools and slices of bools always encode
	return string(b)
}

// correct checks an answer against the query's ground truth. Errors are
// one-sided: falsePositive marks a "yes" on an instance built to have none.
func (q query) correct(a answer) (ok, falsePositive bool) {
	if q.req.Kind != serve.KindScanStat {
		return a.Found == q.yes, a.Found && !q.yes
	}
	if len(a.Table) != q.req.K+1 {
		return false, false
	}
	if q.yes {
		row := a.Table[q.cell[0]]
		return q.cell[1] < len(row) && row[q.cell[1]], false
	}
	// Zero weights: no cell with positive weight is feasible.
	for _, row := range a.Table {
		for z := 1; z < len(row); z++ {
			if row[z] {
				return false, true
			}
		}
	}
	return true, false
}

// outcome is one query as the client saw it.
type outcome struct {
	ans    answer
	cached bool
	ms     float64 // request written → terminal result read
	err    error
}

// target is one running server plus the connections the generator holds.
type target struct {
	srv  *serve.Server
	st   *store.Store
	dir  string
	base string
	a, b *http.Client // connection A queries and submits; B polls (burst-batch)
}

func oneConn() *http.Client {
	return &http.Client{
		Timeout:   queryTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
}

// handlerTransport answers requests by calling the server's handler in
// process: the ladder's middle depth, everything but the socket.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// inProcess returns a view of the same server whose connections bypass
// the socket.
func (t *target) inProcess() *target {
	c := &http.Client{Timeout: queryTimeout, Transport: handlerTransport{t.srv.Handler()}}
	cp := *t
	cp.a, cp.b = c, c
	return &cp
}

// call sends one JSON request and returns the status and body.
func call(c *http.Client, method, url string, body any, reqID string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set(serve.RequestIDHeader, reqID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func terminal(status string) bool {
	return status == serve.StatusDone || status == serve.StatusFailed || status == serve.StatusCancelled
}

// settle turns a terminal job view into an outcome.
func settle(v serve.JobView, start time.Time) outcome {
	out := outcome{ms: msSince(start)}
	if v.Status != serve.StatusDone || v.Result == nil {
		out.err = fmt.Errorf("job ended %q: %s", v.Status, v.Error)
		return out
	}
	out.ans = answer{Found: v.Result.Found, Table: v.Result.Table}
	out.cached = v.Result.Cached
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// query runs one waited query over connection A.
func (t *target) query(q query, reqID string) outcome {
	start := time.Now()
	code, data, err := call(t.a, http.MethodPost, t.base+"/v1/query", q.req, reqID)
	if err != nil {
		return outcome{ms: msSince(start), err: err}
	}
	if code != http.StatusOK {
		return outcome{ms: msSince(start), err: fmt.Errorf("POST /v1/query: %d: %s", code, data)}
	}
	var v serve.JobView
	if err := json.Unmarshal(data, &v); err != nil {
		return outcome{ms: msSince(start), err: err}
	}
	return settle(v, start)
}

// burst submits every query of o without waiting (connection A), then
// polls the jobs in order over connection B, one poll every pollEvery. A
// query's latency runs from its submission to the first poll that sees it
// terminal. Returns the number of polls made.
func (t *target) burst(o op, pollEvery time.Duration, reqID func(slot int) string) ([]outcome, int) {
	no := false
	outs := make([]outcome, len(o.queries))
	starts := make([]time.Time, len(o.queries))
	ids := make([]string, len(o.queries))
	for i, q := range o.queries {
		q.req.Wait = &no
		starts[i] = time.Now()
		code, data, err := call(t.a, http.MethodPost, t.base+"/v1/query", q.req, reqID(i))
		var v serve.JobView
		if err == nil && code != http.StatusOK && code != http.StatusAccepted {
			err = fmt.Errorf("POST /v1/query: %d: %s", code, data)
		}
		if err == nil {
			err = json.Unmarshal(data, &v)
		}
		switch {
		case err != nil:
			outs[i] = outcome{ms: msSince(starts[i]), err: err}
		case terminal(v.Status): // answered from the result cache at the door
			outs[i] = settle(v, starts[i])
		default:
			ids[i] = v.ID
		}
	}
	polls := 0
	for i, id := range ids {
		for id != "" {
			if polls > 0 {
				time.Sleep(pollEvery)
			}
			polls++
			code, data, err := call(t.b, http.MethodGet, t.base+"/v1/jobs/"+id, nil, "")
			var v serve.JobView
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("GET /v1/jobs/%s: %d: %s", id, code, data)
			}
			if err == nil {
				err = json.Unmarshal(data, &v)
			}
			switch {
			case err != nil:
				outs[i] = outcome{ms: msSince(starts[i]), err: err}
			case terminal(v.Status):
				outs[i] = settle(v, starts[i])
			case time.Since(starts[i]) > queryTimeout:
				outs[i] = outcome{ms: msSince(starts[i]), err: fmt.Errorf("job %s still %q after %v", id, v.Status, queryTimeout)}
			default:
				continue
			}
			break
		}
	}
	return outs, polls
}

func (in *instance) graphRequest() serve.GraphRequest {
	return serve.GraphRequest{Name: in.name, N: in.n, Edges: in.edges, Weights: in.weights, Labels: in.labels}
}

// postGraph loads one instance and checks that the server derived the
// same content digest as the local copy.
func (t *target) postGraph(in *instance) error {
	code, data, err := call(t.a, http.MethodPost, t.base+"/v1/graphs", in.graphRequest(), "")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("POST /v1/graphs %s: %d: %s", in.name, code, data)
	}
	var v serve.GraphView
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	if want := strconv.FormatUint(in.g.Digest(), 16); v.Digest != want {
		return fmt.Errorf("graph %s: server digest %s, local %s", in.name, v.Digest, want)
	}
	return nil
}

// coldStart is the time to first answer from cold: open a store in a
// fresh directory, start a server on a loopback socket, load the
// workload's graphs (written through to the store) and answer one query of
// every shape. tr may be nil.
func coldStart(w *workload, workdir string, firsts []query, tr *tracer, parent int) (*target, float64, []outcome, error) {
	dir, err := os.MkdirTemp(workdir, "store-*")
	if err != nil {
		return nil, 0, nil, err
	}
	t := &target{dir: dir, a: oneConn(), b: oneConn()}
	start := time.Now()
	sp := tr.begin("store.open", parent, "")
	t.st, err = store.Open(dir, store.Options{})
	tr.end(sp)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, nil, err
	}
	sp = tr.begin("serve.start", parent, "")
	t.srv = serve.New(serve.Config{Workers: w.executors, BatchWindow: w.batchWindow, Store: t.st})
	err = t.srv.Start("127.0.0.1:0")
	tr.end(sp)
	if err != nil {
		t.close() //nolint:errcheck // the start error is the one to report
		return nil, 0, nil, err
	}
	t.base = "http://" + t.srv.Addr()
	sp = tr.begin("store.put", parent, "")
	for _, in := range []*instance{w.main, w.twin} {
		if err = t.postGraph(in); err != nil {
			break
		}
	}
	tr.end(sp)
	if err != nil {
		t.close() //nolint:errcheck // the load error is the one to report
		return nil, 0, nil, err
	}
	sp = tr.begin("first_query", parent, "")
	outs := make([]outcome, len(firsts))
	for i, q := range firsts {
		outs[i] = t.query(q, "")
	}
	tr.end(sp)
	return t, time.Since(start).Seconds(), outs, nil
}

// close drains and stops the server and removes its store directory. It
// reports a drain that found work still in flight; a second call is a no-op.
func (t *target) close() error {
	if t.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	err := t.srv.Shutdown(ctx)
	cancel()
	t.srv = nil
	for _, c := range []*http.Client{t.a, t.b} {
		c.CloseIdleConnections()
	}
	if cerr := t.st.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(t.dir); err == nil {
		err = rerr
	}
	return err
}
