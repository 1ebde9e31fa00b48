package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/faultinj"
	"repro/internal/mem"
	"repro/internal/objfile"
	"repro/internal/parsim"
	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func TestProfileTypedErrors(t *testing.T) {
	if _, err := ProfileProgram(nil, ProfileOptions{}); !errors.Is(err, ErrNilProgram) {
		t.Errorf("ProfileProgram(nil): %v, want ErrNilProgram", err)
	}
	if _, err := ProfileL2(nil, L2ProfileOptions{}); !errors.Is(err, ErrNilProgram) {
		t.Errorf("ProfileL2(nil): %v, want ErrNilProgram", err)
	}
	cs := workloads.NewADI(64, 1)
	if _, err := Analyze(nil, cs.Original.Binary, nil, AnalyzeOptions{}); !errors.Is(err, ErrNilProfile) {
		t.Errorf("Analyze(nil profile): %v, want ErrNilProfile", err)
	}
	prof, err := ProfileProgram(cs.Original, ProfileOptions{Period: pmu.Fixed(100), Seed: 1, NoTime: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(prof, nil, nil, AnalyzeOptions{}); !errors.Is(err, ErrNilBinary) {
		t.Errorf("Analyze(nil binary): %v, want ErrNilBinary", err)
	}
}

func TestProfileValidatesConfig(t *testing.T) {
	cs := workloads.NewADI(64, 1)
	_, err := ProfileProgram(cs.Original, ProfileOptions{Period: pmu.Fixed(0), NoTime: true})
	if !errors.Is(err, pmu.ErrBadPeriod) {
		t.Errorf("zero period: %v, want pmu.ErrBadPeriod", err)
	}
	_, err = ProfileProgram(cs.Original, ProfileOptions{Burst: -1, NoTime: true})
	if !errors.Is(err, pmu.ErrBadBurst) {
		t.Errorf("negative burst: %v, want pmu.ErrBadBurst", err)
	}
	_, err = ProfileProgram(cs.Original, ProfileOptions{
		Faults: &faultinj.Plan{DropRate: 2}, NoTime: true,
	})
	if !errors.Is(err, faultinj.ErrBadRate) {
		t.Errorf("bad plan: %v, want faultinj.ErrBadRate", err)
	}
	_, err = ProfileL2(cs.Original, L2ProfileOptions{Period: pmu.Fixed(0)})
	if !errors.Is(err, pmu.ErrBadPeriod) {
		t.Errorf("ProfileL2 zero period: %v, want pmu.ErrBadPeriod", err)
	}
}

// TestProfileBoundsThreads: a thread count over MaxThreads is refused with
// ErrTooManyThreads by both profiling entry points before anything is
// allocated or started; MaxThreads itself is the widest evaluated machine.
func TestProfileBoundsThreads(t *testing.T) {
	if w := max(mem.Broadwell().Threads, mem.Skylake().Threads); MaxThreads != w {
		t.Fatalf("MaxThreads = %d, the widest machine config declares %d", MaxThreads, w)
	}
	p := workloads.NewADI(64, 1).Original
	base := runtime.NumGoroutine()
	for _, n := range []int{MaxThreads + 1, 1 << 30} {
		opts := ProfileOptions{Threads: n, NoTime: true}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ProfileProgram(p, opts)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTooManyThreads) {
			t.Errorf("ProfileProgram at %d threads: %v, want ErrTooManyThreads", n, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("ProfileProgram at %d threads allocated %d bytes before refusing", n, grew)
		}
		if _, _, err := ProfileStream(p, opts, AnalyzeOptions{}); !errors.Is(err, ErrTooManyThreads) {
			t.Errorf("ProfileStream at %d threads: %v, want ErrTooManyThreads", n, err)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the refusals, %d before", n, base)
	}
}

// TestProfileKernelPanicReachesCaller: a kernel panic at any thread count
// panics ProfileProgram's caller with the kernel's value — threads run on
// goroutines of their own, and a kernel on its own beside its sampler — so
// parsim contains it as a PanicError instead of the process dying.
func TestProfileKernelPanicReachesCaller(t *testing.T) {
	boom := errors.New("kernel failed")
	b := objfile.NewBuilder("boom")
	b.Func("kernel")
	b.Loop("boom.c", 3)
	ld := b.Load("boom.c", 4)
	b.EndLoop()
	ar := alloc.NewArena()
	arr := ar.Alloc("a", 1<<16, 0)
	p := workloads.NewProgram("boom", b.Finish(), ar, func(tid, threads int, sink *trace.Emitter) {
		for i := uint64(0); i < 3*trace.DefaultBlock; i++ {
			sink.Ref(trace.Ref{IP: ld, Addr: arr.Start + i*64%arr.Size})
		}
		if tid == threads-1 {
			panic(boom)
		}
	})
	base := runtime.NumGoroutine()
	for _, threads := range []int{1, 2} {
		_, err := parsim.Run(1, parsim.Options{Workers: 1}, func(int) (*Profile, error) {
			return ProfileProgram(p, ProfileOptions{Threads: threads, NoTime: true})
		})
		var pe *parsim.PanicError
		if !errors.As(err, &pe) || pe.Value != boom {
			t.Errorf("threads %d: parsim.Run error %v, want a PanicError carrying the kernel's value", threads, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the panics, %d before", n, base)
	}
}

// TestProfileWithFaultPlan: an injected plan degrades the profile —
// counters move, samples shrink — deterministically for a given seed, and
// a clean profile reports no degradation.
func TestProfileWithFaultPlan(t *testing.T) {
	cs := workloads.NewADI(256, 1)
	opts := func(plan *faultinj.Plan) ProfileOptions {
		return ProfileOptions{Period: pmu.Fixed(50), Seed: 3, NoTime: true, Faults: plan}
	}
	clean, err := ProfileProgram(cs.Original, opts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Degraded() {
		t.Errorf("clean profile degraded: %+v", clean)
	}
	plan := &faultinj.Plan{Seed: 5, DropRate: 0.25, CorruptRate: 0.05}
	a, err := ProfileProgram(cs.Original, opts(plan))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Degraded() || a.FaultDropped == 0 || a.FaultCorrupted == 0 {
		t.Fatalf("plan injected nothing: %+v", a)
	}
	if a.SampleCount() >= clean.SampleCount() {
		t.Errorf("dropping 25%% kept %d samples vs clean %d", a.SampleCount(), clean.SampleCount())
	}
	// Events and Refs measure the workload, not the sampler; injection
	// must not perturb them.
	if a.Events != clean.Events || a.Refs != clean.Refs {
		t.Errorf("fault injection changed the workload: events %d/%d refs %d/%d",
			a.Events, clean.Events, a.Refs, clean.Refs)
	}
	b, err := ProfileProgram(cs.Original, opts(plan))
	if err != nil {
		t.Fatal(err)
	}
	if a.FaultDropped != b.FaultDropped || a.FaultCorrupted != b.FaultCorrupted ||
		a.SampleCount() != b.SampleCount() {
		t.Errorf("same plan diverged: (%d,%d,%d) vs (%d,%d,%d)",
			a.FaultDropped, a.FaultCorrupted, a.SampleCount(),
			b.FaultDropped, b.FaultCorrupted, b.SampleCount())
	}
}

// TestProfileFaultsMultiThread: per-thread injector keys decorrelate the
// threads' fault streams while keeping the whole profile deterministic.
func TestProfileFaultsMultiThread(t *testing.T) {
	cs := workloads.NewADI(256, 4)
	plan := &faultinj.Plan{Seed: 11, DropRate: 0.3}
	run := func() *Profile {
		prof, err := ProfileProgram(cs.Original, ProfileOptions{
			Period: pmu.Fixed(50), Seed: 3, Threads: 4, NoTime: true, Faults: plan,
		})
		if err != nil {
			t.Fatal(err)
		}
		return prof
	}
	a, b := run(), run()
	if a.FaultDropped == 0 {
		t.Fatal("no drops across 4 threads")
	}
	for tid := range a.Samples {
		if len(a.Samples[tid]) != len(b.Samples[tid]) {
			t.Errorf("thread %d sample counts diverged: %d vs %d",
				tid, len(a.Samples[tid]), len(b.Samples[tid]))
		}
	}
	// An analysis over the degraded profile must still complete.
	if _, err := Analyze(a, cs.Original.Binary, cs.Original.Arena, AnalyzeOptions{}); err != nil {
		t.Errorf("analyzing degraded profile: %v", err)
	}
}
