package pmu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

func strideRefs(n int) []trace.Ref {
	refs := make([]trace.Ref, n)
	for i := range refs {
		// A strided pattern that misses often enough to exercise the
		// sampling path, not just the L1 probe.
		refs[i] = trace.Ref{IP: uint64(i % 7), Addr: uint64(i) * 192}
	}
	return refs
}

// feed delivers refs to sink as one block.
func feed(sink trace.Sink, refs ...trace.Ref) {
	var b trace.RefBlock
	b.AppendRefs(refs)
	sink.RefBlock(&b)
}

// emitAll streams refs into sink through an Emitter, one Ref call at a
// time, the way workload kernels produce them, and flushes the final
// partial block.
func emitAll(sink trace.Sink, refs []trace.Ref) { emit(trace.NewEmitter(sink), refs) }

// TestSamplerBatchZeroAlloc asserts the hot-path guarantee: with the sample
// buffer pre-grown, consuming a block allocates nothing — zero allocations
// per reference on the fused block path.
func TestSamplerBatchZeroAlloc(t *testing.T) {
	var blk trace.RefBlock
	blk.AppendRefs(strideRefs(20000))
	s := NewSampler(Config{Geom: mem.L1Default(), Period: Uniform(171), Seed: 3})
	s.Grow(blk.Len()) // worst case: every reference sampled
	allocs := testing.AllocsPerRun(5, func() {
		s.RefBlock(&blk)
	})
	if allocs != 0 {
		t.Errorf("block path allocated %.1f times per run, want 0", allocs)
	}
}

func TestGrow(t *testing.T) {
	s := NewSampler(Config{Geom: mem.L1Default(), Period: Fixed(1), Seed: 1})
	feed(s, trace.Ref{Addr: 0})
	if len(s.Samples) != 1 {
		t.Fatalf("expected 1 sample, got %d", len(s.Samples))
	}
	s.Grow(100)
	if cap(s.Samples)-len(s.Samples) < 100 {
		t.Errorf("Grow(100) left headroom %d", cap(s.Samples)-len(s.Samples))
	}
	if s.Samples[0].Addr != 0 || len(s.Samples) != 1 {
		t.Error("Grow lost existing samples")
	}
	before := cap(s.Samples)
	s.Grow(10) // already satisfied; must not reallocate
	if cap(s.Samples) != before {
		t.Error("Grow reallocated despite sufficient headroom")
	}
}
