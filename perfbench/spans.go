package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Spans of one operation (a collective run, a search, a serve
// job, an experiment) share Op; Parent is the span that caused this one
// (0 for a root). Times are host nanoseconds since the run started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin returns 0 and end returns 0 without recording.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp returns a fresh operation id (0 when untraced).
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its id.
func (t *tracer) begin(op, parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans)) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return int64(len(t.spans))
}

// end closes the span and returns its duration.
func (t *tracer) end(id int64) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// record adds a finished span whose interval was timed by the layer
// itself (an experiment's Elapsed, reported when it completes).
func (t *tracer) record(op, parent int64, name string, end time.Time, d time.Duration) {
	if t == nil {
		return
	}
	stop := end.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans)) + 1, Parent: parent, Op: op, Name: name,
		Start: stop - d.Nanoseconds(), End: stop})
}

// bytes is the memory the span buffer holds.
func (t *tracer) bytes() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := cap(t.spans) * 56
	for _, s := range t.spans {
		n += len(s.Name)
	}
	return n
}

// write stores every span as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
