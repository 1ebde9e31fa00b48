package pmu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestObserveInto checks the merge-on-reassembly contract: every shard-local
// counter lands in the registry, and merging two shards sums them.
func TestObserveInto(t *testing.T) {
	refs := strideRefs(20000)
	mk := func() *Sampler {
		s := NewSampler(Config{Geom: mem.L1Default(), Period: Uniform(171), Seed: 3})
		emitAll(s, refs)
		return s
	}
	a, b := mk(), mk()

	reg := obs.New()
	a.ObserveInto(reg)
	b.ObserveInto(reg)

	if got, want := reg.Counter("pmu.refs").Load(), a.Refs+b.Refs; got != want {
		t.Errorf("pmu.refs = %d, want %d", got, want)
	}
	if got, want := reg.Counter("pmu.events").Load(), a.Events+b.Events; got != want {
		t.Errorf("pmu.events = %d, want %d", got, want)
	}
	if got, want := reg.Counter("pmu.samples").Load(), a.count+b.count; got != want {
		t.Errorf("pmu.samples = %d, want %d", got, want)
	}
	if got, want := reg.Counter("pmu.l1.misses").Load(), a.Events+b.Events; got != want {
		t.Errorf("pmu.l1.misses = %d, want %d", got, want)
	}
	if got := reg.Histogram("pmu.l1.set_misses").Count(); got != uint64(2*a.cfg.Geom.Sets) {
		t.Errorf("pmu.l1.set_misses count = %d, want %d", got, 2*a.cfg.Geom.Sets)
	}
}

// instrumentedStream builds the fully instrumented reference path every
// workload run takes in production: a trace.Emitter (block staging, stream
// statistics) feeding a Sampler (PMU model over the L1 simulator) through
// its fused block path.
func instrumentedStream() (*trace.Emitter, *Sampler) {
	s := NewSampler(Config{Geom: mem.L1Default(), Period: Uniform(171), Seed: 3})
	return trace.NewEmitter(s), s
}

// emit streams refs through the emitter one Ref call at a time, as the
// workload kernels do, and flushes the final partial block.
func emit(e *trace.Emitter, refs []trace.Ref) {
	for _, r := range refs {
		e.Ref(r)
	}
	e.Flush()
}

// TestInstrumentedStreamZeroAlloc guards the tentpole's acceptance
// criterion: with observability threaded through the whole stack, the
// per-reference path — emitter staging, block delivery, L1 simulation,
// sampling — still allocates nothing. Registry merges happen once per run,
// outside the loop.
func TestInstrumentedStreamZeroAlloc(t *testing.T) {
	refs := strideRefs(20000)
	e, s := instrumentedStream()
	s.Grow(len(refs) * 10) // headroom for every AllocsPerRun repetition
	allocs := testing.AllocsPerRun(5, func() { emit(e, refs) })
	if allocs != 0 {
		t.Errorf("instrumented stream allocated %.1f times per run, want 0", allocs)
	}
	// The merge itself is off the hot path: a handful of registry updates
	// per run, after the stream ends.
	reg := obs.New()
	e.ObserveInto(reg)
	s.ObserveInto(reg)
	if reg.Counter("trace.refs_streamed").Load() == 0 || reg.Counter("pmu.refs").Load() == 0 {
		t.Error("merge lost the stream statistics")
	}
}

// BenchmarkInstrumentedStream measures the instrumented per-reference path
// end to end (emitter -> sampler -> L1) including the once-per-run registry
// merge, reporting ns/ref and allocs/op for the 0 allocs/ref guarantee.
func BenchmarkInstrumentedStream(bm *testing.B) {
	refs := strideRefs(1 << 16)
	e, s := instrumentedStream()
	reg := obs.New()
	s.Grow(len(refs)) // pre-grown like production sweeps
	emit(e, refs)     // untimed: the sampler's first block grows it once
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		s.Samples = s.Samples[:0] // reuse the pre-grown buffer
		emit(e, refs)
	}
	e.ObserveInto(reg)
	s.ObserveInto(reg)
	bm.StopTimer()
	if s.Refs == 0 {
		bm.Fatal("no refs streamed")
	}
}
