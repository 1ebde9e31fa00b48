package trace

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// emitAll is a kernel that emits refs, with an explicit mid-stream Flush
// after the first flushAt references when flushAt > 0.
func emitAll(refs []Ref, flushAt int) func(*Emitter) {
	return func(e *Emitter) {
		for i, r := range refs {
			if i == flushAt && flushAt > 0 {
				e.Flush()
			}
			e.Ref(r)
		}
	}
}

// waitGoroutines waits briefly for the goroutine count to fall back to
// base: a goroutine that has signalled its end may still be returning.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the run", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipeMatchesSequential: a piped run delivers the sequential run's
// stream — the same references in the same block pieces, including a
// kernel's own mid-stream Flush — and the same stream statistics, for
// lengths on and off block and ring boundaries, on a reused emitter.
func TestPipeMatchesSequential(t *testing.T) {
	e := new(Emitter)
	for _, n := range []int{0, 1, DefaultBlock - 1, DefaultBlock, DefaultBlock + 1,
		ringDepth * DefaultBlock, 3*ringDepth*DefaultBlock + 7} {
		for _, flushAt := range []int{0, 5} {
			refs := refSeq(n)
			var seq, piped blockLens
			s := NewEmitter(&seq)
			emitAll(refs, flushAt)(s)
			s.Flush()
			e.Pipe(&piped, emitAll(refs, flushAt))
			if !reflect.DeepEqual(piped.lens, seq.lens) || !reflect.DeepEqual(piped.Refs, seq.Refs) {
				t.Fatalf("n=%d flushAt=%d: piped blocks %v, sequential %v", n, flushAt, piped.lens, seq.lens)
			}
			want, got := obs.New(), obs.New()
			s.ObserveInto(want)
			e.ObserveInto(got)
			for _, c := range []string{"trace.refs_streamed", "trace.batches_flushed"} {
				if got.Counter(c).Load() != want.Counter(c).Load() {
					t.Errorf("n=%d flushAt=%d: %s = %d piped, %d sequential", n, flushAt, c,
						got.Counter(c).Load(), want.Counter(c).Load())
				}
			}
		}
	}
	// The emitter still works sequentially after piping.
	var rec Recorder
	e.Reset(&rec)
	e.Ref(Ref{IP: 7})
	e.Flush()
	if rec.Len() != 1 || rec.Refs[0].IP != 7 {
		t.Fatalf("sequential run after Pipe saw %v", rec.Refs)
	}
}

// TestPipeOneProc: with one P the two stages take turns and still deliver
// the whole stream in order.
func TestPipeOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	refs := refSeq(5*ringDepth*DefaultBlock + 3)
	var got Recorder
	new(Emitter).Pipe(&got, emitAll(refs, 0))
	if !reflect.DeepEqual(got.Refs, refs) {
		t.Fatalf("GOMAXPROCS=1: %d of %d refs delivered in order", got.Len(), len(refs))
	}
}

// TestPipeKernelPanic: a kernel panic is re-raised on the caller's
// goroutine with its value, after the blocks emitted before it.
func TestPipeKernelPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("kernel failed")
	var got Recorder
	func() {
		defer func() {
			if v := recover(); v != boom {
				t.Fatalf("recovered %v, want the kernel's panic value", v)
			}
		}()
		new(Emitter).Pipe(&got, func(e *Emitter) {
			emitAll(refSeq(2*DefaultBlock+1), 0)(e)
			panic(boom)
		})
		t.Fatal("Pipe returned normally after a kernel panic")
	}()
	if got.Len() != 2*DefaultBlock {
		t.Errorf("%d refs delivered before the panic, want the %d of the full blocks", got.Len(), 2*DefaultBlock)
	}
	waitGoroutines(t, base)
}

// TestPipeKernelGoexit: a kernel that ends its goroutine without returning
// must not pass for a complete stream.
func TestPipeKernelGoexit(t *testing.T) {
	defer func() {
		if v := recover(); v != errKernelExited {
			t.Fatalf("recovered %v, want errKernelExited", v)
		}
	}()
	new(Emitter).Pipe(Discard, func(e *Emitter) { runtime.Goexit() })
	t.Fatal("Pipe returned normally after the kernel's Goexit")
}

// panicOn panics on its nth block.
type panicOn struct{ n, seen int }

func (p *panicOn) RefBlock(*RefBlock) {
	if p.seen++; p.seen == p.n {
		panic("sink failed")
	}
}

// TestPipeSinkPanicStopsProducer: a sink panic reaches the caller only after
// the producer has stopped — here a kernel that would otherwise never end —
// and the emitter pipes normally afterwards.
func TestPipeSinkPanicStopsProducer(t *testing.T) {
	base := runtime.NumGoroutine()
	e := new(Emitter)
	var unwound atomic.Bool
	func() {
		defer func() {
			if v := recover(); v != "sink failed" {
				t.Fatalf("recovered %v, want the sink's panic value", v)
			}
		}()
		e.Pipe(&panicOn{n: 2}, func(e *Emitter) {
			defer unwound.Store(true)
			for i := uint64(0); ; i++ {
				e.Ref(Ref{Addr: i})
			}
		})
	}()
	if !unwound.Load() {
		t.Fatal("the sink's panic reached the caller before the producer stopped")
	}
	waitGoroutines(t, base)
	refs := refSeq(ringDepth*DefaultBlock + 1)
	var got Recorder
	e.Pipe(&got, emitAll(refs, 0))
	if !reflect.DeepEqual(got.Refs, refs) {
		t.Fatalf("after a sink panic, the next Pipe delivered %d of %d refs", got.Len(), len(refs))
	}

	// Reset rewinds an emitter whose Pipe was cut short to sequential
	// delivery.
	func() {
		defer func() { recover() }()
		e.Pipe(&panicOn{n: 1}, emitAll(refs, 0))
	}()
	got.Reset()
	e.Reset(&got)
	emitAll(refs, 0)(e)
	e.Flush()
	if !reflect.DeepEqual(got.Refs, refs) {
		t.Fatalf("sequential run after an aborted Pipe delivered %d of %d refs", got.Len(), len(refs))
	}
}

// TestPipeSteadyStateAllocs: once its channels exist, a piped run allocates a
// small constant (the producer goroutine's start), however long the stream.
func TestPipeSteadyStateAllocs(t *testing.T) {
	e := new(Emitter)
	short, long := refSeq(DefaultBlock+1), refSeq(10*(DefaultBlock+1))
	kShort, kLong := emitAll(short, 0), emitAll(long, 0)
	e.Pipe(Discard, kShort)
	a1 := testing.AllocsPerRun(20, func() { e.Pipe(Discard, kShort) })
	a10 := testing.AllocsPerRun(20, func() { e.Pipe(Discard, kLong) })
	if a1 > 2 || a10 > a1 {
		t.Fatalf("piped run allocated %.1f (1x) and %.1f (10x) times, want <= 2 and no growth", a1, a10)
	}
}

// stallingKernel is emitAll with a pause before each DefaultBlock-th
// reference i, of pause[i/DefaultBlock].
func stallingKernel(refs []Ref, flushAt int, pause []time.Duration) func(*Emitter) {
	return func(e *Emitter) {
		for i, r := range refs {
			if i%DefaultBlock == 0 {
				time.Sleep(pause[i/DefaultBlock])
			}
			if i == flushAt && flushAt > 0 {
				e.Flush()
			}
			e.Ref(r)
		}
	}
}

// stallingSink records its blocks after a pause of pause[k] on the kth,
// and panics on block panicAt (counting from 1) if that is positive.
type stallingSink struct {
	blockLens
	pause   []time.Duration
	panicAt int
}

func (s *stallingSink) RefBlock(b *RefBlock) {
	k := len(s.lens)
	time.Sleep(s.pause[k])
	if k+1 == s.panicAt {
		panic("sink failed")
	}
	s.blockLens.RefBlock(b)
}

// stallPlan draws where the kernel and the sink pause, for n blocks. Phases
// of ringDepth blocks alternate the side that pauses, so each in turn is
// the slower stage: the consumer runs dry and parks, then the producer
// fills the ring and parks. Which side starts is drawn too.
func stallPlan(rng *rand.Rand, n int) (kernel, sink []time.Duration) {
	kernel, sink = make([]time.Duration, n), make([]time.Duration, n)
	first := rng.IntN(2)
	for b := range n {
		if rng.IntN(4) == 0 {
			continue
		}
		d := time.Duration(20+rng.IntN(130)) * time.Microsecond
		if (b/ringDepth+first)%2 == 0 {
			kernel[b] = d
		} else {
			sink[b] = d
		}
	}
	return kernel, sink
}

// within runs f on a goroutine of its own and returns what it panicked
// with, or nil. A run still going after d fails the test with every
// goroutine's stack: a lost wake-up hangs instead of failing.
func within(t *testing.T, d time.Duration, f func()) any {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	select {
	case v := <-done:
		return v
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("piped run still going after %v:\n%s", d, buf[:runtime.Stack(buf, true)])
		return nil
	}
}

// TestPipeStress drives the wake protocol with the kernel and the sink
// stalling at seeded random blocks, at GOMAXPROCS 1 and 2, on streams
// shorter than wakeAt blocks, of exactly wakeAt and ringDepth blocks, one
// reference past a ring and several rings long, with and without a
// mid-stream Flush. Every run must deliver the sequential stream, end
// within the timeout and leave no goroutine; a run whose sink panics must
// deliver the blocks before the panic and stop the producer.
func TestPipeStress(t *testing.T) {
	sizes := []int{1, 3*DefaultBlock + 5, wakeAt * DefaultBlock, ringDepth * DefaultBlock,
		ringDepth*DefaultBlock + 1, 3*ringDepth*DefaultBlock + 7}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rng := rand.New(rand.NewPCG(uint64(procs), 25))
			e := new(Emitter)
			for _, n := range sizes {
				for _, flushAt := range []int{0, DefaultBlock/2 + 1} {
					refs := refSeq(n)
					var seq blockLens
					s := NewEmitter(&seq)
					emitAll(refs, flushAt)(s)
					s.Flush()
					blocks := len(seq.lens)
					for round := range 3 {
						name := fmt.Sprintf("n=%d flushAt=%d round=%d", n, flushAt, round)
						kp, sp := stallPlan(rng, blocks+1)
						got := &stallingSink{pause: sp}
						if round == 2 && blocks > 1 {
							got.panicAt = 1 + rng.IntN(blocks)
						}
						base := runtime.NumGoroutine()
						v := within(t, time.Minute, func() { e.Pipe(got, stallingKernel(refs, flushAt, kp)) })
						waitGoroutines(t, base)
						want := seq.lens
						if got.panicAt > 0 {
							if v != "sink failed" {
								t.Fatalf("%s: recovered %v, want the sink's panic", name, v)
							}
							want = want[:got.panicAt-1]
						} else if v != nil {
							t.Fatalf("%s: piped run panicked: %v", name, v)
						}
						if !slices.Equal(got.lens, want) || !slices.Equal(got.Refs, seq.Refs[:len(got.Refs)]) {
							t.Fatalf("%s: piped blocks %v, want %v", name, got.lens, want)
						}
					}
				}
			}
		})
	}
}
