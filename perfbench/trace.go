package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent names the span that caused this one.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // from the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// addShots records one client span per request of a load phase under the
// phase span parent; request ids continue from firstReq.
func (t *tracer) addShots(name string, parent, firstReq int, start time.Time, shots []shot) {
	for i, s := range shots {
		t.add(name, parent, firstReq+i, start.Add(s.Sent), start.Add(s.Done))
	}
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
