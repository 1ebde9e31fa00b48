package trace

// Struct-of-arrays reference streaming. A consumer that only needs
// addresses (the PMU sampler, the cache simulators — IPs matter only for
// the rare sampled miss) would drag IP and Write through the cache at 24
// bytes per reference in an array of Refs, and every consumer re-derives
// set/tag from scratch. A RefBlock stores the stream as three parallel
// arrays, so the replay hot path streams 8 contiguous bytes per reference
// and the fused sample+classify loops in internal/cache and internal/pmu
// stay memory-bandwidth-bound instead of dispatch-bound: one Sink call per
// block, not per reference.

// DefaultBlock is the Emitter's block capacity: 4096 references ≈ 32 KiB
// of addresses, resident in L1/L2 while both producer and consumer touch
// them.
const DefaultBlock = 4096

// FlagWrite marks a reference as a store in RefBlock.Flags.
const FlagWrite uint8 = 1

// RefBlock is a struct-of-arrays batch of references: IP, Addr and Flags
// hold the i-th reference's fields at index i. The three slices always have
// equal length. A delivered block is only valid for the duration of the
// call and is reused by the producer: consumers must not retain or modify
// it.
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

// Emitter is the producer side of the replay engine: every workload kernel
// emits through one, by a statically bound call. Ref stores each reference
// by index into fixed struct-of-arrays buffers — no append, no interface
// call, no pointer to chase — and each full DefaultBlock-sized block goes to
// the consumer in one Sink.RefBlock call, so every consumer receives the
// same sequence in the same DefaultBlock-sized pieces.
//
// An Emitter delivers in one of two modes. Sequentially (NewEmitter, Reset),
// Flush calls the sink on the emitting goroutine, between two references,
// and only the first block of the buffers is used. Pipelined (Pipe), the
// kernel emits on a goroutine of its own into the buffers' ringDepth blocks
// in turn, and each full block is handed, without a copy, to the sink
// running on the caller's goroutine; see Pipe for that mode's contract.
//
// The caller must Flush after the final reference; Program.RunThread does.
// Ref is the only per-reference entry point of the stream: custom workloads
// (see workloads.NewProgram) receive their thread's Emitter directly.
type Emitter struct {
	out Sink
	// The current block is ip[start:pos], addr[start:pos],
	// flags[start:pos]; it is full when pos reaches end = start +
	// DefaultBlock. start is 0 except while piped.
	pos, start, end int

	ip    [ringDepth * DefaultBlock]uint64
	addr  [ringDepth * DefaultBlock]uint64
	flags [ringDepth * DefaultBlock]uint8
	blk   RefBlock // the view of a block handed to the sink

	// pipe holds the pipelined mode's channels, made on the first Pipe and
	// kept, so a pooled emitter carries them with it. piped is set while a
	// Pipe's producer is running.
	pipe  *pipe
	piped bool

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
	e.pos, e.start, e.end = 0, 0, DefaultBlock
	e.piped = false
	e.refs, e.flushes = 0, 0
}

// Ref stores r at the next free index, flushing first when the block is
// full.
func (e *Emitter) Ref(r Ref) {
	if e.pos == e.end {
		e.Flush()
	}
	// The mask is a no-op (pos < end <= len(ip) here) that lets the
	// compiler drop the bounds checks.
	i := e.pos & (len(e.ip) - 1)
	e.ip[i] = r.IP
	e.addr[i] = r.Addr
	var fl uint8
	if r.Write {
		fl = FlagWrite
	}
	e.flags[i] = fl
	e.pos = i + 1
}

// view returns the n references from index start as a RefBlock.
func (e *Emitter) view(start, n int) RefBlock {
	return RefBlock{IP: e.ip[start : start+n], Addr: e.addr[start : start+n], Flags: e.flags[start : start+n]}
}

// Flush delivers any buffered references downstream as one block.
func (e *Emitter) Flush() {
	n := e.pos - e.start
	if n == 0 {
		return
	}
	e.refs += uint64(n)
	e.flushes++
	if e.piped {
		e.handoff(n)
		return
	}
	e.blk = e.view(e.start, n)
	e.out.RefBlock(&e.blk)
	e.pos = e.start
}
