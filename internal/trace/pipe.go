package trace

import (
	"errors"
	"runtime"
	"sync/atomic"
)

// Pipelined delivery. A profiled run has two stages of similar cost: the
// kernel producing references, and the consumer (the L1 model and the
// sampler) classifying them. Sequentially they take turns on one core;
// Pipe runs them on two, the kernel on a goroutine of its own and the
// consumer on the caller's, joined by a ring of blocks inside the emitter's
// own buffers. A full block changes hands by index: the producer is the
// slower stage, so it must not pay a 17 B/ref copy.

// ringDepth is the number of DefaultBlock-sized blocks in an Emitter's
// buffers: while piped, one being filled and the rest queued for or held by
// the consumer. Four blocks of 17 B/ref are ~280 KiB.
const ringDepth = 4

// pipe holds the two channels that move blocks, named by their start
// index, between a piped Emitter's producer and consumer. Both hold at
// most ringDepth entries and the ring has ringDepth blocks, so a send never
// blocks: the only waits are the producer for a free block and the
// consumer for a full one.
type pipe struct {
	full chan span // producer → consumer; n < 0 ends the stream
	free chan int  // consumer → producer; a negative start asks the producer to stop

	stop atomic.Bool // set when the consumer has failed
	val  any         // the producer's panic value, read after the end marker
}

// span is a full (or final, partial) block on its way to the consumer.
type span struct{ start, n int }

// reset returns the pipe to its starting state: block 0 with the producer,
// every other block free, nothing in flight.
func (p *pipe) reset() {
	for len(p.free) > 0 {
		<-p.free
	}
	for len(p.full) > 0 {
		<-p.full
	}
	for b := 1; b < ringDepth; b++ {
		p.free <- b * DefaultBlock
	}
	p.stop.Store(false)
	p.val = nil
}

// errKernelExited is re-raised when a pipelined kernel ends its goroutine
// with runtime.Goexit instead of returning or panicking: the stream it
// delivered is incomplete, and the caller must not take it as the whole.
var errKernelExited = errors.New("trace: pipelined kernel called runtime.Goexit")

// Pipe runs kernel(e) on a new goroutine and delivers every block it emits
// to out on the calling goroutine. The stream out sees is the one
// Reset(out), kernel(e), Flush() would deliver: the same references, in the
// same order, in the same DefaultBlock-sized pieces, so the stream
// statistics ObserveInto merges are the same too. Pipe returns once the
// kernel has returned and its final block has been delivered.
//
// Contract. out runs concurrently with the kernel, so it must not read
// state the kernel writes (a program's arena, say, if the kernel allocates
// as it runs); a sink that owns all its state is safe. Failures reach the
// caller as they would sequentially:
//
//   - A kernel panic is recovered on the producer goroutine and, after the
//     blocks emitted before it are delivered, re-raised on the caller's
//     goroutine with the same value.
//   - If out panics, the producer is stopped at its next block handoff and
//     has exited before the panic continues up the caller's stack.
//
// No goroutine outlives the call: the producer's last act is the
// end-of-stream send Pipe waits for. Pipe works at GOMAXPROCS=1, where the
// two stages take turns. The channels are made on first use and kept, so a
// pooled emitter pipes again without allocating them.
func (e *Emitter) Pipe(out Sink, kernel func(*Emitter)) {
	p := e.pipe
	if p == nil {
		p = &pipe{full: make(chan span, ringDepth), free: make(chan int, ringDepth)}
		e.pipe = p
	}
	p.reset()
	e.Reset(nil)
	e.piped = true
	go e.produce(kernel)

	delivered := false
	defer func() {
		if delivered {
			return
		}
		// out panicked. Stop the producer at its next handoff, wake it
		// if it waits for a block, and let the panic continue only once
		// its end marker shows it has exited.
		p.stop.Store(true)
		p.free <- -1
		for f := range p.full {
			if f.n < 0 {
				break
			}
		}
	}()
	for {
		f := <-p.full
		if f.n < 0 {
			break
		}
		e.blk = e.view(f.start, f.n) // the producer leaves blk alone while piped
		out.RefBlock(&e.blk)
		p.free <- f.start
	}
	delivered = true
	e.piped = false
	e.pos, e.start, e.end = 0, 0, DefaultBlock
	if p.val != nil {
		panic(p.val)
	}
}

// produce is the producer goroutine of Pipe: it runs the kernel, flushes
// its final partial block and always ends the stream with a marker,
// whether the kernel returned, panicked or was stopped.
func (e *Emitter) produce(kernel func(*Emitter)) {
	p := e.pipe
	done := false
	defer func() {
		if !done {
			p.val = recover()
			if p.val == nil && !p.stop.Load() {
				p.val = errKernelExited
			}
		}
		p.full <- span{n: -1}
	}()
	kernel(e)
	e.Flush()
	done = true
}

// handoff passes the current block, of n references, to the consumer and
// moves to a free one, waiting while the consumer holds them all. A failed
// consumer ends the producer here: runtime.Goexit unwinds the kernel, and
// no kernel recover can intercept it.
func (e *Emitter) handoff(n int) {
	p := e.pipe
	p.full <- span{e.start, n}
	e.pos = e.start
	if p.stop.Load() {
		runtime.Goexit()
	}
	start := <-p.free
	if start < 0 {
		runtime.Goexit()
	}
	e.start, e.pos, e.end = start, start, start+DefaultBlock
}
