// Package trace defines the memory-reference stream that connects workloads
// to the cache simulator and the simulated PMU.
//
// A workload emits one Ref per dynamic memory access into an Emitter, which
// stages the stream into struct-of-arrays RefBlocks and hands each full
// block to a Sink. Sinks compose: a counter, a recorder, a cache simulator,
// and a PMU sampler all implement Sink, and Tee fans a stream out to several
// of them. Traces can also be serialized to an io.Writer in the framed CCTB
// format and replayed later, mirroring the Pin-trace → Dinero IV flow the
// paper uses for its ground truth.
package trace

import "fmt"

// Ref is a single dynamic memory reference: the instruction pointer of the
// access (a synthetic address in an objfile.Binary), the effective data
// address, and whether the access is a store.
type Ref struct {
	IP    uint64
	Addr  uint64
	Write bool
}

func (r Ref) String() string {
	k := "R"
	if r.Write {
		k = "W"
	}
	return fmt.Sprintf("%s ip=%#x addr=%#x", k, r.IP, r.Addr)
}

// Sink consumes a stream of memory references, one struct-of-arrays block
// at a time. The block is only valid for the duration of the call and is
// reused by the producer: implementations must not retain or modify it.
type Sink interface {
	RefBlock(b *RefBlock)
}

// SinkFunc adapts a per-reference function to the Sink interface: each
// block is delivered to f one reference at a time, in order.
type SinkFunc func(Ref)

// RefBlock implements Sink by calling f on every reference of b.
func (f SinkFunc) RefBlock(b *RefBlock) {
	for i := range b.Addr {
		f(b.Ref(i))
	}
}

// Discard is a Sink that drops every reference. It is useful for measuring
// the bare cost of running a workload's loop nest (the "no profiling"
// baseline in overhead experiments).
var Discard Sink = discardSink{}

type discardSink struct{}

func (discardSink) RefBlock(*RefBlock) {}

// Counter counts references flowing through it. The zero value is ready.
type Counter struct {
	Reads  uint64
	Writes uint64
}

// RefBlock implements Sink.
func (c *Counter) RefBlock(b *RefBlock) {
	var w uint64
	for _, fl := range b.Flags {
		w += uint64(fl & FlagWrite)
	}
	c.Writes += w
	c.Reads += uint64(len(b.Flags)) - w
}

// Total returns reads + writes.
func (c *Counter) Total() uint64 { return c.Reads + c.Writes }

// Tee returns a Sink that forwards every block to each of sinks in order.
// A nil entry is skipped.
func Tee(sinks ...Sink) Sink {
	compact := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			compact = append(compact, s)
		}
	}
	if len(compact) == 1 {
		return compact[0]
	}
	return teeSink(compact)
}

type teeSink []Sink

func (t teeSink) RefBlock(b *RefBlock) {
	for _, s := range t {
		s.RefBlock(b)
	}
}

// Recorder buffers the full reference stream in memory so it can be replayed
// (e.g. once through the exact simulator and once through the sampler, as
// the paper's accuracy study requires both views of the same execution).
type Recorder struct {
	Refs []Ref
}

// RefBlock implements Sink.
func (rec *Recorder) RefBlock(b *RefBlock) { rec.Refs = b.AppendTo(rec.Refs) }

// Len returns the number of recorded references.
func (rec *Recorder) Len() int { return len(rec.Refs) }
