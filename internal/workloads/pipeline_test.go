package workloads

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/objfile"
	"repro/internal/parsim"
	"repro/internal/trace"
)

// stridedProgram is a custom kernel emitting n references, calling hook
// (when non-nil) before each one with its index.
func stridedProgram(n int, hook func(i int)) *Program {
	b := objfile.NewBuilder("strided")
	b.Func("kernel")
	b.Loop("strided.c", 3)
	ld := b.Load("strided.c", 4)
	b.EndLoop()
	ar := alloc.NewArena()
	blk := ar.Alloc("a", 1<<20, 0)
	return NewProgram("strided", b.Finish(), ar, func(tid, threads int, sink *trace.Emitter) {
		for i := 0; i < n; i++ {
			if hook != nil {
				hook(i)
			}
			sink.Ref(trace.Ref{IP: ld, Addr: blk.Start + uint64(i*64)%blk.Size})
		}
	})
}

// settle waits briefly for the goroutine count to fall back to base: a
// producer that has signalled its end may still be returning.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunThreadPipelinedKernelPanic: a kernel that panics mid-run panics
// the caller with its own value, so parsim reports it as a PanicError as
// it would a sequential run's, and the producer goroutine is gone.
func TestRunThreadPipelinedKernelPanic(t *testing.T) {
	boom := errors.New("kernel failed mid-run")
	p := stridedProgram(5*trace.DefaultBlock, func(i int) {
		if i == 3*trace.DefaultBlock+17 {
			panic(boom)
		}
	})
	base := runtime.NumGoroutine()
	var c trace.Counter
	func() {
		defer func() {
			if v := recover(); v != boom {
				t.Fatalf("caller recovered %v, want the kernel's panic value", v)
			}
		}()
		p.RunThreadPipelined(0, 1, &c)
		t.Fatal("RunThreadPipelined returned normally after a kernel panic")
	}()
	settle(t, base)

	_, err := parsim.Run(1, parsim.Options{Workers: 1}, func(int) (uint64, error) {
		var c trace.Counter
		p.RunThreadPipelined(0, 1, &c)
		return c.Total(), nil
	})
	var pe *parsim.PanicError
	if !errors.As(err, &pe) || pe.Value != boom {
		t.Fatalf("parsim.Run error %v, want a PanicError carrying the kernel's value", err)
	}
	settle(t, base)
}

// panicOnBlock panics on its nth block.
type panicOnBlock struct{ n, seen int }

func (s *panicOnBlock) RefBlock(*trace.RefBlock) {
	if s.seen++; s.seen == s.n {
		panic("sink failed")
	}
}

// TestRunThreadPipelinedSinkPanic: a sink panic reaches the caller once the
// producer has stopped, and the next pooled run delivers its whole stream.
func TestRunThreadPipelinedSinkPanic(t *testing.T) {
	var emitted atomic.Int64
	p := stridedProgram(50*trace.DefaultBlock, func(int) { emitted.Add(1) })
	base := runtime.NumGoroutine()
	func() {
		defer func() {
			if v := recover(); v != "sink failed" {
				t.Fatalf("caller recovered %v, want the sink's panic value", v)
			}
		}()
		p.RunThreadPipelined(0, 1, &panicOnBlock{n: 2})
	}()
	// The producer stops at the handoff after the sink fails: it can have
	// filled at most the ring's blocks, far short of the 50 blocks.
	stopped := emitted.Load()
	if stopped >= 50*trace.DefaultBlock {
		t.Fatalf("the kernel ran to completion (%d refs) after its sink failed", stopped)
	}
	settle(t, base)
	if emitted.Load() != stopped {
		t.Fatalf("the kernel kept emitting after the caller saw the panic: %d then %d refs", stopped, emitted.Load())
	}

	var c trace.Counter
	stridedProgram(3*trace.DefaultBlock+5, nil).RunThreadPipelined(0, 1, &c)
	if c.Total() != 3*trace.DefaultBlock+5 {
		t.Fatalf("the run after a sink panic delivered %d refs", c.Total())
	}
}

// TestRunThreadPipelinedAllocs: a warm pipelined run allocates a small
// constant — the producer goroutine's start — that does not grow with the
// stream: a kernel 10x as long allocates no more.
func TestRunThreadPipelinedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop values at random, so pooled allocation counts vary")
	}
	short, long := stridedProgram(20*trace.DefaultBlock, nil), stridedProgram(200*trace.DefaultBlock, nil)
	var c trace.Counter
	short.RunThreadPipelined(0, 1, &c)
	a1 := testing.AllocsPerRun(10, func() { short.RunThreadPipelined(0, 1, &c) })
	a10 := testing.AllocsPerRun(10, func() { long.RunThreadPipelined(0, 1, &c) })
	if a1 > 4 || a10 > a1 {
		t.Fatalf("pipelined run allocated %.1f times (1x) and %.1f (10x), want at most 4 and no growth", a1, a10)
	}
	t.Logf("pipelined run: %.0f allocs (1x), %.0f (10x)", a1, a10)
}

// TestRunAddressesPipelinedSkipsValues: building a case study and running
// it address-only never fills its value arrays. Building one (Get and its
// SpecBuilder, as an advise op starts) allocates the binaries, arenas and
// specs of three programs, tens of KiB; once the emitter pool is warm, an
// address-only run of a freshly built case study allocates a small
// constant, while its first sequential Run allocates the arrays it computes
// in (NW's two 1025x1025 int32 matrices alone are 8 MiB, symmetrization's
// matrix 512 KiB).
func TestRunAddressesPipelinedSkipsValues(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop values at random, so pooled allocation counts vary")
	}
	const runBudget, buildBudget = 64 << 10, 128 << 10
	allocated := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var c trace.Counter
	for _, name := range Names() {
		var cs *CaseStudy
		var err error
		build := allocated(func() {
			if cs, err = Get(name); err == nil {
				cs.SpecBuilder()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		cs.Optimized.RunAddressesPipelined(&c) // warm the emitter pool
		p := cs.Original
		addrs := allocated(func() { p.RunAddressesPipelined(&c) })
		values := allocated(func() { p.RunThread(0, 1, &c) })
		t.Logf("%s: build %d B, address-only run %d B, sequential run %d B", name, build, addrs, values)
		if build > buildBudget {
			t.Errorf("%s: building the case study allocated %d B, budget %d B", name, build, buildBudget)
		}
		if addrs > runBudget {
			t.Errorf("%s: address-only run allocated %d B, budget %d B", name, addrs, runBudget)
		}
		if values < 4*runBudget {
			t.Errorf("%s: sequential run allocated only %d B, so this test cannot tell a value fill apart", name, values)
		}
	}
}
