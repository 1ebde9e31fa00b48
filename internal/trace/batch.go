package trace

import "encoding/binary"

// Batched reference streaming. Delivering every reference through a
// Sink.Ref interface call costs one dynamic dispatch per access; the hot
// consumers (the PMU sampler, the cache simulators) each do trivial work
// per reference, so dispatch overhead is a real fraction of simulation
// time. The batch path amortizes it: a producer holding a slice of
// references hands the whole slice to a BatchSink, whose implementation
// consumes it in a tight loop.
//
// Compatibility: plain Sinks (including SinkFunc adapters) keep working
// unchanged — Emit falls back to per-reference delivery when the consumer
// does not implement BatchSink.

// DefaultBatch is the batch size replay loops use when they slice a recorded
// stream: large enough to amortize dispatch, small enough to stay in L1/L2
// of the host (4096 refs × 24 bytes ≈ 96 KiB).
const DefaultBatch = 4096

// BatchSink is implemented by sinks that can consume references in slices.
// The slice is only valid for the duration of the call and is reused by the
// producer: implementations must not retain or modify it.
type BatchSink interface {
	Sink
	RefBatch(refs []Ref)
}

// Emit delivers refs to sink, using the batch path when sink supports it.
func Emit(sink Sink, refs []Ref) {
	if bs, ok := sink.(BatchSink); ok {
		bs.RefBatch(refs)
		return
	}
	for _, r := range refs {
		sink.Ref(r)
	}
}

// Batch-path implementations for the built-in sinks.

// RefBatch implements BatchSink.
func (c *Counter) RefBatch(refs []Ref) {
	var w uint64
	for i := range refs {
		if refs[i].Write {
			w++
		}
	}
	c.Writes += w
	c.Reads += uint64(len(refs)) - w
}

// RefBatch implements BatchSink.
func (rec *Recorder) RefBatch(refs []Ref) { rec.Refs = append(rec.Refs, refs...) }

// RefBatch implements BatchSink.
func (t teeSink) RefBatch(refs []Ref) {
	for _, s := range t {
		Emit(s, refs)
	}
}

// RefBatch implements BatchSink: kept references are compacted into a
// scratch buffer and forwarded via Emit, so batch consumers downstream of a
// Filter stay on the batch path instead of degenerating to per-ref calls.
func (f Filter) RefBatch(refs []Ref) {
	sp := refScratch.Get().(*[]Ref)
	kept := (*sp)[:0]
	for i := range refs {
		if f.Keep(refs[i]) {
			kept = append(kept, refs[i])
		}
	}
	if len(kept) > 0 {
		Emit(f.Next, kept)
	}
	*sp = kept[:0]
	refScratch.Put(sp)
}

// RefBatch implements BatchSink.
func (l *Limit) RefBatch(refs []Ref) {
	if l.seen >= l.N {
		return
	}
	if left := l.N - l.seen; uint64(len(refs)) > left {
		refs = refs[:left]
	}
	l.seen += uint64(len(refs))
	Emit(l.Next, refs)
}

// RefBatch implements BatchSink: the whole batch is encoded into one scratch
// buffer and written with a single bufio call, producing bytes identical to
// per-reference encoding.
func (w *Writer) RefBatch(refs []Ref) {
	if w.err != nil || len(refs) == 0 {
		return
	}
	buf := w.encodeStart(len(refs))
	if buf == nil {
		return
	}
	for i := range refs {
		o := i * refBytes
		binary.LittleEndian.PutUint64(buf[o:o+8], refs[i].IP)
		binary.LittleEndian.PutUint64(buf[o+8:o+16], refs[i].Addr)
		if refs[i].Write {
			buf[o+16] = 1
		} else {
			buf[o+16] = 0
		}
	}
	if _, err := w.bw.Write(buf); err != nil {
		w.err = err
	}
}

type discardSink struct{}

func (discardSink) Ref(Ref)        {}
func (discardSink) RefBatch([]Ref) {}
