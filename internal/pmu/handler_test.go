package pmu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestHandlerMatchesBuffered pins the sampler-level streaming contract: an
// online Handler receives exactly the sample sequence the buffer would have
// collected — same samples, same order, same counters — on the fused block
// path, and the scalar oracle's handler sees the same sequence.
func TestHandlerMatchesBuffered(t *testing.T) {
	refs := make([]trace.Ref, 0, 60000)
	for i := 0; i < 60000; i++ {
		refs = append(refs, trace.Ref{
			IP:    0x401000 + uint64(i%13)*8,
			Addr:  uint64(i%4096) * 64,
			Write: i%5 == 0,
		})
	}
	cfg := Config{Geom: mem.L1Default(), Period: Uniform(171), Seed: 99, Burst: 4}

	buffered := NewSampler(cfg)
	var blk trace.RefBlock
	blk.AppendRefs(refs)
	buffered.RefBlock(&blk)

	streamed := NewSampler(cfg)
	var got []Sample
	streamed.Handler = func(sm Sample) { got = append(got, sm) }
	streamed.RefBlock(&blk)

	if streamed.Events != buffered.Events || streamed.Refs != buffered.Refs {
		t.Errorf("handler-mode counters events=%d refs=%d, buffered events=%d refs=%d",
			streamed.Events, streamed.Refs, buffered.Events, buffered.Refs)
	}
	if streamed.SampleCount() != buffered.SampleCount() {
		t.Errorf("handler-mode count %d, buffered %d", streamed.SampleCount(), buffered.SampleCount())
	}
	if len(streamed.Samples) != 0 {
		t.Errorf("handler mode buffered %d samples; buffer must stay empty", len(streamed.Samples))
	}
	if len(got) != len(buffered.Samples) {
		t.Fatalf("handler received %d samples, buffer holds %d", len(got), len(buffered.Samples))
	}
	for i := range got {
		if got[i] != buffered.Samples[i] {
			t.Fatalf("sample %d differs: handler %+v, buffered %+v", i, got[i], buffered.Samples[i])
		}
	}

	// The scalar oracle agrees too.
	perRef := NewSampler(cfg)
	var got2 []Sample
	perRef.Handler = func(sm Sample) { got2 = append(got2, sm) }
	for _, r := range refs {
		perRef.ref(r)
	}
	if len(got2) != len(got) {
		t.Fatalf("per-ref handler received %d samples, block handler %d", len(got2), len(got))
	}
	for i := range got2 {
		if got2[i] != got[i] {
			t.Fatalf("per-ref sample %d differs from block sample", i)
		}
	}
}
