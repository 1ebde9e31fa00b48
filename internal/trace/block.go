package trace

import (
	"encoding/binary"
	"sync"
)

// Struct-of-arrays reference streaming. The []Ref batch path amortizes
// dispatch but keeps the array-of-structs layout: a consumer that only needs
// addresses (the PMU sampler, the cache simulators — IPs matter only for
// the rare sampled miss) still drags IP and Write through the cache at 24
// bytes per reference, and every consumer re-derives set/tag from scratch.
// A RefBlock stores the same stream as three parallel arrays, so the replay
// hot path streams 8 contiguous bytes per reference and the fused
// sample+classify loops in internal/cache and internal/pmu stay
// memory-bandwidth-bound instead of dispatch-bound.

// DefaultBlock is the Emitter's block capacity. It matches DefaultBatch:
// 4096 references ≈ 32 KiB of addresses, resident in L1/L2 while both
// producer and consumer touch them.
const DefaultBlock = DefaultBatch

// FlagWrite marks a reference as a store in RefBlock.Flags.
const FlagWrite uint8 = 1

// RefBlock is a struct-of-arrays batch of references: IP, Addr and Flags
// hold the i-th reference's fields at index i. The three slices always have
// equal length. Like []Ref batches, a delivered block is only valid for the
// duration of the call and is reused by the producer: consumers must not
// retain or modify it.
type RefBlock struct {
	IP    []uint64
	Addr  []uint64
	Flags []uint8 // bit 0 (FlagWrite): the access is a store
}

// Len returns the number of references in the block.
func (b *RefBlock) Len() int { return len(b.Addr) }

// Reset empties the block, keeping its backing storage.
func (b *RefBlock) Reset() {
	b.IP = b.IP[:0]
	b.Addr = b.Addr[:0]
	b.Flags = b.Flags[:0]
}

// Grow ensures capacity for at least n more references.
func (b *RefBlock) Grow(n int) {
	if cap(b.Addr)-len(b.Addr) >= n {
		return
	}
	want := len(b.Addr) + n
	ip := make([]uint64, len(b.IP), want)
	copy(ip, b.IP)
	addr := make([]uint64, len(b.Addr), want)
	copy(addr, b.Addr)
	fl := make([]uint8, len(b.Flags), want)
	copy(fl, b.Flags)
	b.IP, b.Addr, b.Flags = ip, addr, fl
}

// Append adds one reference to the block.
func (b *RefBlock) Append(r Ref) {
	var fl uint8
	if r.Write {
		fl = FlagWrite
	}
	b.IP = append(b.IP, r.IP)
	b.Addr = append(b.Addr, r.Addr)
	b.Flags = append(b.Flags, fl)
}

// AppendRefs adds a []Ref batch to the block, converting to the SoA layout.
func (b *RefBlock) AppendRefs(refs []Ref) {
	b.Grow(len(refs))
	for i := range refs {
		b.Append(refs[i])
	}
}

// Ref returns the i-th reference in AoS form.
func (b *RefBlock) Ref(i int) Ref {
	return Ref{IP: b.IP[i], Addr: b.Addr[i], Write: b.Flags[i]&FlagWrite != 0}
}

// AppendTo converts the block back to []Ref form, appending to dst.
func (b *RefBlock) AppendTo(dst []Ref) []Ref {
	for i := range b.Addr {
		dst = append(dst, b.Ref(i))
	}
	return dst
}

// BlockSink is implemented by sinks that consume references in SoA blocks —
// the fast path of the replay engine. The block is only valid for the
// duration of the call; implementations must not retain or modify it.
type BlockSink interface {
	Sink
	RefBlock(b *RefBlock)
}

// refScratch recycles []Ref conversion buffers for block/batch adaptation
// paths (EmitBlock to a batch-only consumer, Filter compaction). Scratch
// slices hold no state between uses, so pooling them is invisible to
// results.
var refScratch = sync.Pool{
	New: func() any { s := make([]Ref, 0, DefaultBlock); return &s },
}

// EmitBlock delivers a block to sink on the best path it supports: native
// block delivery, []Ref batch delivery through a scratch conversion, or
// per-reference calls. The delivered reference sequence is identical on all
// three paths.
func EmitBlock(sink Sink, b *RefBlock) {
	switch s := sink.(type) {
	case BlockSink:
		s.RefBlock(b)
	case BatchSink:
		sp := refScratch.Get().(*[]Ref)
		refs := b.AppendTo((*sp)[:0])
		s.RefBatch(refs)
		*sp = refs[:0]
		refScratch.Put(sp)
	default:
		for i := range b.Addr {
			sink.Ref(b.Ref(i))
		}
	}
}

// Emitter is the producer side of the replay engine: every workload kernel
// emits through one, by a statically bound call. Ref stores each reference
// by index into fixed DefaultBlock-sized struct-of-arrays buffers — no
// append, no interface call — and each full block goes to the consumer in
// one EmitBlock call, so block, batch and plain sinks share one staging path
// and receive the same sequence in the same DefaultBlock-sized pieces.
//
// The caller must Flush after the final reference; Program.RunThread does.
// An Emitter is itself a Sink, so code written against Sink (custom
// workloads, see workloads.NewProgram) can emit into one too.
type Emitter struct {
	out Sink
	n   int // buffered references: ip[:n], addr[:n], flags[:n]

	ip    [DefaultBlock]uint64
	addr  [DefaultBlock]uint64
	flags [DefaultBlock]uint8
	blk   RefBlock // the view of the buffers handed to out on Flush

	// Shard-local stream statistics, merged once per run via ObserveInto:
	// the delivery path itself never touches shared state.
	refs    uint64
	flushes uint64
}

// NewEmitter returns an Emitter delivering to out.
func NewEmitter(out Sink) *Emitter {
	e := new(Emitter)
	e.Reset(out)
	return e
}

// Reset rewinds a pooled Emitter to the state NewEmitter(out) constructs:
// the consumer is replaced and any buffered references and stream
// statistics are discarded.
func (e *Emitter) Reset(out Sink) {
	e.out = out
	e.n = 0
	e.refs, e.flushes = 0, 0
}

// Ref implements Sink: it stores r at the next free index, flushing first
// when the block is full.
func (e *Emitter) Ref(r Ref) {
	if e.n == DefaultBlock {
		e.Flush()
	}
	// The mask is a no-op (n < DefaultBlock here) that lets the compiler
	// drop the bounds checks.
	i := e.n & (DefaultBlock - 1)
	e.ip[i] = r.IP
	e.addr[i] = r.Addr
	var fl uint8
	if r.Write {
		fl = FlagWrite
	}
	e.flags[i] = fl
	e.n = i + 1
}

// Flush delivers any buffered references downstream as one block.
func (e *Emitter) Flush() {
	if e.n == 0 {
		return
	}
	e.blk = RefBlock{IP: e.ip[:e.n], Addr: e.addr[:e.n], Flags: e.flags[:e.n]}
	e.refs += uint64(e.n)
	e.flushes++
	EmitBlock(e.out, &e.blk)
	e.n = 0
}

// Block-path implementations for the built-in sinks, mirroring the batch
// path: every sink that consumes batches natively consumes blocks natively
// too, so a block stream never silently degrades to per-ref delivery at a
// built-in stage.

// RefBlock implements BlockSink.
func (c *Counter) RefBlock(b *RefBlock) {
	var w uint64
	for _, fl := range b.Flags {
		w += uint64(fl & FlagWrite)
	}
	c.Writes += w
	c.Reads += uint64(len(b.Flags)) - w
}

// RefBlock implements BlockSink.
func (rec *Recorder) RefBlock(b *RefBlock) { rec.Refs = b.AppendTo(rec.Refs) }

// RefBlock implements BlockSink.
func (t teeSink) RefBlock(b *RefBlock) {
	for _, s := range t {
		EmitBlock(s, b)
	}
}

// RefBlock implements BlockSink: kept references are compacted into a
// scratch block and forwarded via EmitBlock, so consumers downstream of a
// Filter stay on the block path.
func (f Filter) RefBlock(b *RefBlock) {
	sp := blockScratch.Get().(*RefBlock)
	sp.Reset()
	sp.Grow(b.Len())
	for i := range b.Addr {
		r := b.Ref(i)
		if f.Keep(r) {
			sp.Append(r)
		}
	}
	if sp.Len() > 0 {
		EmitBlock(f.Next, sp)
	}
	blockScratch.Put(sp)
}

// blockScratch recycles compaction blocks for Filter.
var blockScratch = sync.Pool{New: func() any { return new(RefBlock) }}

// RefBlock implements BlockSink.
func (l *Limit) RefBlock(b *RefBlock) {
	if l.seen >= l.N {
		return
	}
	if left := l.N - l.seen; uint64(b.Len()) > left {
		b = &RefBlock{IP: b.IP[:left], Addr: b.Addr[:left], Flags: b.Flags[:left]}
	}
	l.seen += uint64(b.Len())
	EmitBlock(l.Next, b)
}

// RefBlock implements BlockSink: the block is encoded straight from the SoA
// arrays into one scratch buffer and written with a single bufio call,
// producing bytes identical to per-reference encoding.
func (w *Writer) RefBlock(b *RefBlock) {
	if w.err != nil || b.Len() == 0 {
		return
	}
	buf := w.encodeStart(b.Len())
	if buf == nil {
		return
	}
	for i := range b.Addr {
		o := i * refBytes
		binary.LittleEndian.PutUint64(buf[o:o+8], b.IP[i])
		binary.LittleEndian.PutUint64(buf[o+8:o+16], b.Addr[i])
		buf[o+16] = b.Flags[i] & FlagWrite
	}
	if _, err := w.bw.Write(buf); err != nil {
		w.err = err
	}
}

func (discardSink) RefBlock(*RefBlock) {}
