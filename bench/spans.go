package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one interval at a layer boundary, recorded by the benchmark around
// its calls into the layer (spans inside the program under test are a later
// change). Spans of one repetition or one job share TraceID; Parent is the
// ID of the span that caused this one (0 = a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	TraceID string `json:"trace_id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // wall clock, Unix nanoseconds
	EndNS   int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: every method is a no-op.
type spanRecorder struct {
	mu    sync.Mutex
	spans []span
}

// add records one span and returns its id (0 when untraced).
func (r *spanRecorder) add(name, trace string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, TraceID: trace, Name: name,
		StartNS: start.UnixNano(), EndNS: end.UnixNano()})
	return id
}

// open starts a span whose children are recorded before it ends; close
// stamps its end.
func (r *spanRecorder) open(name, trace string, parent int, start time.Time) int {
	return r.add(name, trace, parent, start, start)
}

func (r *spanRecorder) close(id int, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id-1].EndNS = end.UnixNano()
	r.mu.Unlock()
}

// writeFile dumps every span as one JSON array.
func (r *spanRecorder) writeFile(path string) error {
	r.mu.Lock()
	raw, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
