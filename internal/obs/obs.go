// Package obs is the zero-dependency observability layer of the pipeline:
// atomic counters, gauges, log2 histograms and span-style phase timers,
// collected in a Registry that renders an end-of-run Snapshot as JSON and
// can serve itself over HTTP (expvar-compatible /debug/vars plus
// net/http/pprof) behind the CLIs' -metrics-addr flag.
//
// CCProf's core claim is lightweightness, so the layer is built not to
// perturb what it measures:
//
//   - Hot paths never touch the Registry. Per-shard simulation objects (a
//     cache, a sampler, an emitter) keep counting in plain uint64 fields as
//     they always have — shard-local, no atomics, no allocation — and merge
//     their totals into the Registry once, at reassembly time, through
//     ObserveInto methods. A merge is a handful of atomic adds per *run*,
//     not per reference, so the AccessHit path stays 0 allocs/ref (guarded
//     by TestInstrumentedStreamZeroAlloc and BenchmarkInstrumentedStream).
//
//   - Determinism is preserved. Counters, gauges and histograms record
//     quantities that are functions of the simulated work alone (refs
//     streamed, hits, misses, samples, batches, tasks), so their merged
//     totals are byte-identical at any -j worker count. Wall-clock lives
//     only in Phases, which Snapshot.Deterministic strips — experiment
//     reports and golden files never see a timing.
package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// String implements expvar.Var.
func (c *Counter) String() string { return strconv.FormatUint(c.v.Load(), 10) }

// Gauge is an atomic instantaneous value (worker counts, buffer sizes).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// String implements expvar.Var.
func (g *Gauge) String() string { return strconv.FormatInt(g.v.Load(), 10) }

// Registry is a named collection of metrics. Instruments are get-or-create
// by name and safe for concurrent use; the intended pattern is to resolve
// an instrument once per run (or per merge) and update it with atomic
// operations, never to look names up on a per-reference path.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	phases   map[string]*Phase

	published atomic.Bool
}

// New returns an empty Registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		phases:   map[string]*Phase{},
	}
}

// Default is the process-wide registry the pipeline instruments feed.
var Default = New()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// Reset discards every metric. The experiments CLI resets between
// experiments so each snapshot describes exactly one run.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = map[string]*Counter{}
	r.gauges = map[string]*Gauge{}
	r.hists = map[string]*Histogram{}
	r.phases = map[string]*Phase{}
}
