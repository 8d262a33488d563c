package main

// Spans recorded by the benchmark itself, around its calls into each
// layer. They are kept in memory and written when the run ends; spans
// inside the program are a later change (ROADMAP item 4).

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

type span struct {
	name       string
	start, end time.Time
	parent     int // index of the causing span; -1 for the root
	reqID      string
}

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, reqID string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: time.Now(), parent: parent, reqID: reqID})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].end = time.Now()
	t.mu.Unlock()
}

// writeChrome writes the spans in Chrome trace_event format (load at
// chrome://tracing or ui.perfetto.dev). tid is the span's depth, so the
// nesting shows as stacked lanes.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]event, 0, len(t.spans))
	depth := make([]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			depth[i] = depth[s.parent] + 1
		}
		args := map[string]any{"id": i, "parent": s.parent}
		if s.reqID != "" {
			args["request_id"] = s.reqID
		}
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Sub(t.spans[0].start)) / float64(time.Microsecond),
			Dur: float64(s.end.Sub(s.start)) / float64(time.Microsecond),
			Pid: 1, Tid: depth[i], Args: args,
		})
	}
	return writeJSON(path, map[string]any{"traceEvents": events})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
