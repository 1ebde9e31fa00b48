package trace

import (
	"errors"
	"reflect"
	"runtime"
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
