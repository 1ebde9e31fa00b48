package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the ID of the enclosing span (0 for an op's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tally accumulates per-block calls as a count and a total instead of
// storing each call.
type tally struct {
	Calls uint64 `json:"calls"`
	Total uint64 `json:"total"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs share the traced code path.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	tallys map[string]*tally
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), tallys: map[string]*tally{}}
}

// start opens a span and returns its ID.
func (t *tracer) start(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add counts calls calls of a per-block boundary carrying total units.
func (t *tracer) add(name string, calls, total uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.tallys[name]
	if c == nil {
		c = &tally{}
		t.tallys[name] = c
	}
	c.Calls += calls
	c.Total += total
}

// meanMS returns the mean duration in ms of the spans named name.
func (t *tracer) meanMS(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e6
}
