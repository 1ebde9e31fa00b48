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
//
// The ring moves blocks through two counters, not a channel per block. Go
// readies a goroutine woken by a channel operation onto the waker's P, so
// a wake-up per block left the stages taking turns on one core. Here a
// stage that runs dry parks on a doorbell, and the other stage rings it
// only once half the ring is ready for it, or when the stream ends or the
// run stops: a wake-up comes once per several blocks and finds work
// queued. Neither stage spins.

// ringDepth is the number of DefaultBlock-sized blocks in an Emitter's
// buffers: while piped, one being filled and the rest queued for or held by
// the consumer. Eight blocks of 17 B/ref are ~557 KiB.
const ringDepth = 8

// wakeAt is how many blocks must be ready for a parked stage before the
// other stage rings it: queued blocks for the consumer, free ones for the
// producer.
const wakeAt = ringDepth / 2

// pipe is the ring state shared by a piped Emitter's producer and
// consumer. Blocks are numbered in emission order; block b lives in ring
// slot b % ringDepth. The producer fills block head, publishes it by
// storing head+1, and may reuse a slot once the consumer's tail has passed
// the block that last held it. The only waits are the producer's for a
// free slot and the consumer's for a published block.
type pipe struct {
	head atomic.Uint64 // blocks published; written by the producer
	tail atomic.Uint64 // blocks released; written by the consumer
	lens [ringDepth]int

	ended atomic.Bool // the producer has published its last block
	stop  atomic.Bool // the consumer has failed

	producer, consumer doorbell
	done               chan struct{} // the producer's last act: it sends once and exits
	val                any           // the producer's panic value, read after done
}

// doorbell parks one stage until the other rings it. waiting is set by the
// parking stage before its last look at the ring and cleared by whichever
// side claims it, so each successful ring sends exactly one token and the
// one-slot channel never blocks the ringer.
type doorbell struct {
	waiting atomic.Bool
	ch      chan struct{}
}

// ring wakes the stage parked on d, if it is parked or about to park.
func (d *doorbell) ring() {
	if d.waiting.Load() && d.waiting.CompareAndSwap(true, false) {
		d.ch <- struct{}{}
	}
}

// park returns once ready holds, sleeping on d until the other stage
// rings. A stage announces itself before the last look, so a ring the
// other stage makes after changing what ready reads is never lost.
func (d *doorbell) park(ready func() bool) {
	for !ready() {
		d.waiting.Store(true)
		if ready() {
			if !d.waiting.CompareAndSwap(true, false) {
				<-d.ch // a ring claimed the flag first: take its token
			}
			return
		}
		<-d.ch
	}
}

// reset returns the pipe to its starting state: nothing published, every
// slot free. The channels are empty here, since every token sent by a run
// is received in it.
func (p *pipe) reset() {
	p.head.Store(0)
	p.tail.Store(0)
	p.ended.Store(false)
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
// No goroutine outlives the call: the producer's last act is the send on
// done that Pipe waits for. Pipe works at GOMAXPROCS=1, where the two
// stages take turns. The channels are made on first use and kept, so a
// pooled emitter pipes again without allocating them.
func (e *Emitter) Pipe(out Sink, kernel func(*Emitter)) {
	p := e.pipe
	if p == nil {
		p = &pipe{
			producer: doorbell{ch: make(chan struct{}, 1)},
			consumer: doorbell{ch: make(chan struct{}, 1)},
			done:     make(chan struct{}, 1),
		}
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
		// if it waits for a slot, and let the panic continue only once
		// it has exited.
		p.stop.Store(true)
		p.producer.ring()
		<-p.done
	}()
	var tail uint64
	ready := func() bool { return p.head.Load() != tail || p.ended.Load() }
	for {
		if p.head.Load() == tail {
			if p.ended.Load() && p.head.Load() == tail {
				break
			}
			p.consumer.park(ready)
			continue
		}
		slot := int(tail % ringDepth)
		e.blk = e.view(slot*DefaultBlock, p.lens[slot]) // the producer leaves blk alone while piped
		out.RefBlock(&e.blk)
		tail++
		p.tail.Store(tail)
		if free := ringDepth - (p.head.Load() - tail); free >= wakeAt {
			p.producer.ring()
		}
	}
	delivered = true
	<-p.done
	e.piped = false
	e.pos, e.start, e.end = 0, 0, DefaultBlock
	if p.val != nil {
		panic(p.val)
	}
}

// produce is the producer goroutine of Pipe: it runs the kernel, flushes
// its final partial block and always ends the stream, whether the kernel
// returned, panicked or was stopped.
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
		p.ended.Store(true)
		p.consumer.ring()
		p.done <- struct{}{}
	}()
	kernel(e)
	e.Flush()
	done = true
}

// handoff publishes the current block, of n references, to the consumer
// and moves to the next slot, waiting while the consumer holds them all. A
// failed consumer ends the producer here: runtime.Goexit unwinds the
// kernel, and no kernel recover can intercept it.
func (e *Emitter) handoff(n int) {
	p := e.pipe
	head := p.head.Load()
	p.lens[head%ringDepth] = n
	head++
	p.head.Store(head)
	if head-p.tail.Load() >= wakeAt {
		p.consumer.ring()
	}
	p.producer.park(func() bool { return head-p.tail.Load() < ringDepth || p.stop.Load() })
	if p.stop.Load() {
		runtime.Goexit()
	}
	e.start = int(head%ringDepth) * DefaultBlock
	e.pos, e.end = e.start, e.start+DefaultBlock
}
