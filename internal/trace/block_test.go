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

// blockOf builds a RefBlock holding refs.
func blockOf(refs ...Ref) *RefBlock {
	var b RefBlock
	b.AppendRefs(refs)
	return &b
}

// feedBlocks delivers refs to sink in consecutive blocks of size n (the
// last one partial).
func feedBlocks(sink Sink, refs []Ref, n int) {
	for lo := 0; lo < len(refs); lo += n {
		sink.RefBlock(blockOf(refs[lo:min(lo+n, len(refs))]...))
	}
}

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
// stream, in order, to block consumers and SinkFunc adapters alike, in
// full DefaultBlock-sized blocks plus one final partial block, for stream
// lengths on and off block boundaries.
func TestEmitterPreservesStream(t *testing.T) {
	for _, n := range []int{0, 1, DefaultBlock - 1, DefaultBlock, DefaultBlock + 1, 3*DefaultBlock + 7} {
		refs := refSeq(n)
		blocks := &blockLens{}
		var plain []Ref
		for _, sink := range []Sink{blocks, SinkFunc(func(r Ref) { plain = append(plain, r) })} {
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
		for name, got := range map[string][]Ref{"block": blocks.Refs, "SinkFunc": plain} {
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

// TestCounterBatch: the vectorized block counter must agree with a
// per-reference tally, however the stream is split into blocks.
func TestCounterBatch(t *testing.T) {
	refs := refSeq(500)
	var want Counter
	for _, r := range refs {
		if r.Write {
			want.Writes++
		} else {
			want.Reads++
		}
	}
	for _, n := range []int{1, 7, 333, 500} {
		var got Counter
		feedBlocks(&got, refs, n)
		if got != want {
			t.Errorf("blocks of %d: count %+v != per-ref count %+v", n, got, want)
		}
	}
}

// TestTeeBatch: Tee must fan a block out to every sink, the per-reference
// SinkFunc adapter included.
func TestTeeBatch(t *testing.T) {
	refs := refSeq(64)
	var rec Recorder
	var cnt Counter
	var plain []Ref
	sink := Tee(&rec, &cnt, SinkFunc(func(r Ref) { plain = append(plain, r) }))
	sink.RefBlock(blockOf(refs...))
	if !reflect.DeepEqual(rec.Refs, refs) {
		t.Error("tee: recorder missed refs")
	}
	if cnt.Total() != uint64(len(refs)) {
		t.Errorf("tee: counter saw %d refs, want %d", cnt.Total(), len(refs))
	}
	if !reflect.DeepEqual(plain, refs) {
		t.Error("tee: plain sink missed refs")
	}
	rec.Reset()
	if rec.Len() != 0 {
		t.Error("Reset did not clear recorder")
	}
}
