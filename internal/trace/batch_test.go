package trace

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

func refSeq(n int) []Ref {
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = Ref{IP: uint64(i), Addr: uint64(i) * 64, Write: i%3 == 0}
	}
	return refs
}

// batchOnly consumes batches but not blocks, so EmitBlock must convert.
type batchOnly struct{ refs []Ref }

func (b *batchOnly) Ref(r Ref)           { b.refs = append(b.refs, r) }
func (b *batchOnly) RefBatch(refs []Ref) { b.refs = append(b.refs, refs...) }

// blockLens records the length of every block it receives.
type blockLens struct {
	Recorder
	lens []int
}

func (b *blockLens) RefBlock(blk *RefBlock) {
	b.lens = append(b.lens, blk.Len())
	b.Recorder.RefBlock(blk)
}

// TestEmitterPreservesStream: the emitter must deliver exactly the per-ref
// stream, in order, to block, batch-only and plain consumers alike, in
// full DefaultBlock-sized blocks plus one final partial block, for stream
// lengths on and off block boundaries.
func TestEmitterPreservesStream(t *testing.T) {
	for _, n := range []int{0, 1, DefaultBlock - 1, DefaultBlock, DefaultBlock + 1, 3*DefaultBlock + 7} {
		refs := refSeq(n)
		blocks := &blockLens{}
		batch := &batchOnly{}
		var plain []Ref
		for _, sink := range []Sink{blocks, batch, SinkFunc(func(r Ref) { plain = append(plain, r) })} {
			e := NewEmitter(sink)
			for _, r := range refs {
				e.Ref(r)
			}
			e.Flush()
			reg := obs.New()
			e.ObserveInto(reg)
			wantFlushes := uint64((n + DefaultBlock - 1) / DefaultBlock)
			if got := reg.Counter("trace.refs_streamed").Load(); got != uint64(n) {
				t.Errorf("n=%d %T: refs_streamed = %d", n, sink, got)
			}
			if got := reg.Counter("trace.batches_flushed").Load(); got != wantFlushes {
				t.Errorf("n=%d %T: batches_flushed = %d, want %d", n, sink, got, wantFlushes)
			}
		}
		for name, got := range map[string][]Ref{"block": blocks.Refs, "batch": batch.refs, "SinkFunc": plain} {
			if len(got) != n || (n > 0 && !reflect.DeepEqual(got, refs)) {
				t.Fatalf("n=%d: %s consumer saw a different stream", n, name)
			}
		}
		for i, l := range blocks.lens {
			if want := min(DefaultBlock, n-i*DefaultBlock); l != want {
				t.Fatalf("n=%d: block %d has %d refs, want %d", n, i, l, want)
			}
		}
	}
}

// TestEmitterReset: a rewound emitter forgets buffered references and stream
// statistics and delivers to its new consumer only.
func TestEmitterReset(t *testing.T) {
	var old, cur Recorder
	e := NewEmitter(&old)
	e.Ref(Ref{IP: 1})
	e.Reset(&cur)
	e.Ref(Ref{IP: 2})
	e.Flush()
	if old.Len() != 0 || cur.Len() != 1 || cur.Refs[0].IP != 2 {
		t.Fatalf("after Reset: old saw %d refs, new saw %v", old.Len(), cur.Refs)
	}
	reg := obs.New()
	e.ObserveInto(reg)
	if got := reg.Counter("trace.refs_streamed").Load(); got != 1 {
		t.Errorf("refs_streamed = %d after Reset, want 1", got)
	}
}

// TestCounterBatch: the vectorized counter must agree with per-ref counting.
func TestCounterBatch(t *testing.T) {
	refs := refSeq(500)
	var perRef, batched Counter
	for _, r := range refs {
		perRef.Ref(r)
	}
	batched.RefBatch(refs)
	if perRef != batched {
		t.Errorf("batch count %+v != per-ref count %+v", batched, perRef)
	}
}

// TestLimitBatch: Limit must truncate mid-batch at exactly N references.
func TestLimitBatch(t *testing.T) {
	refs := refSeq(100)
	var rec Recorder
	l := &Limit{N: 42, Next: &rec}
	l.RefBatch(refs[:30])
	l.RefBatch(refs[30:])
	if rec.Len() != 42 {
		t.Fatalf("limit passed %d refs, want 42", rec.Len())
	}
	l.RefBatch(refs)
	if rec.Len() != 42 {
		t.Fatalf("limit leaked refs after saturation: %d", rec.Len())
	}
}

// TestFilterBatch: Filter must apply Keep per reference on the batch path.
func TestFilterBatch(t *testing.T) {
	refs := refSeq(100)
	var want, got Recorder
	f := Filter{Keep: func(r Ref) bool { return !r.Write }, Next: &want}
	for _, r := range refs {
		f.Ref(r)
	}
	f.Next = &got
	f.RefBatch(refs)
	if !reflect.DeepEqual(got.Refs, want.Refs) {
		t.Errorf("batch filter kept %d refs, per-ref kept %d", got.Len(), want.Len())
	}
}

// TestTeeBatch: Tee must fan a batch out to batch-aware and plain sinks.
func TestTeeBatch(t *testing.T) {
	refs := refSeq(64)
	var rec Recorder
	var cnt Counter
	var plain []Ref
	sink := Tee(&rec, &cnt, SinkFunc(func(r Ref) { plain = append(plain, r) }))
	Emit(sink, refs)
	if !reflect.DeepEqual(rec.Refs, refs) {
		t.Error("tee: recorder missed refs")
	}
	if cnt.Total() != uint64(len(refs)) {
		t.Errorf("tee: counter saw %d refs, want %d", cnt.Total(), len(refs))
	}
	if !reflect.DeepEqual(plain, refs) {
		t.Error("tee: plain sink missed refs")
	}
}

// TestEmitFallback: Emit must deliver per-ref to sinks without batch
// support.
func TestEmitFallback(t *testing.T) {
	refs := refSeq(10)
	var got []Ref
	Emit(SinkFunc(func(r Ref) { got = append(got, r) }), refs)
	if !reflect.DeepEqual(got, refs) {
		t.Error("Emit fallback dropped or reordered refs")
	}
}
