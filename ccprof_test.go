package ccprof

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/pmu"
	"repro/internal/trace"
)

func TestFacadeEndToEnd(t *testing.T) {
	cs, err := Workload("tinydnn")
	if err != nil {
		t.Fatal(err)
	}
	an, err := ProfileAndAnalyze(cs.Original,
		ProfileOptions{Period: pmu.Uniform(cs.ProfilePeriod), Seed: 1, NoTime: true},
		AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !an.Conflict {
		t.Errorf("tinydnn should be flagged (cf=%.2f)", an.CF)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, an); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"CCProf report", "CONFLICT MISSES DETECTED",
		cs.TargetLoop, "W", "code-centric", "data-centric"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestFacadeWorkloadRegistry(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 7 {
		t.Errorf("expected 7 case studies, got %v", names)
	}
	if _, err := Workload("nope"); err == nil {
		t.Error("unknown workload should error")
	}
	if suite := RodiniaSuite(); len(suite) != 18 {
		t.Errorf("Rodinia suite has %d kernels, want 18", len(suite))
	}
}

func TestFacadeMachines(t *testing.T) {
	b, s := Broadwell(), Skylake()
	if b.Threads != 28 || s.Threads != 8 {
		t.Errorf("thread counts: %d/%d", b.Threads, s.Threads)
	}
	if L1Default().Sets != 64 {
		t.Errorf("L1 sets = %d", L1Default().Sets)
	}
	if DefaultPeriod != 1212 || RCDThreshold != 8 {
		t.Error("paper constants drifted")
	}
}

func TestFacadeCustomProgram(t *testing.T) {
	// The examples/custom-workload flow, condensed: a page-strided table
	// must be flagged, a dense one must not.
	build := func(name string, stride uint64) *Program {
		b := NewBinaryBuilder(name)
		b.Func("main")
		b.Loop("h.c", 1)
		ld := b.Load("h.c", 2)
		b.EndLoop()
		bin := b.Finish()
		ar := NewArena()
		tbl := ar.Alloc("tbl", 256*stride, 4096)
		return NewProgram(name, bin, ar, func(tid, threads int, sink *Emitter) {
			if tid != 0 {
				return
			}
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 200_000; i++ {
				sink.Ref(Ref{IP: ld, Addr: tbl.Start + uint64(rng.Intn(256))*stride})
			}
		})
	}
	for _, c := range []struct {
		stride uint64
		want   bool
	}{{4096, true}, {64, false}} {
		p := build("hist", c.stride)
		an, err := ProfileAndAnalyze(p,
			ProfileOptions{Period: pmu.Uniform(171), Seed: 1, NoTime: true},
			AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if an.Conflict != c.want {
			t.Errorf("stride %d: conflict=%v, want %v (cf=%.2f)", c.stride, an.Conflict, c.want, an.CF)
		}
	}
}

func TestFacadeSimulate(t *testing.T) {
	cs, err := Workload("symmetrization")
	if err != nil {
		t.Fatal(err)
	}
	before := Simulate(cs.Original, Skylake(), 2)
	after := Simulate(cs.Optimized, Skylake(), 2)
	if before.Accesses() == 0 {
		t.Fatal("no accesses simulated")
	}
	if sp := cache.Speedup(before, after); sp <= 1 {
		t.Errorf("padding speedup = %.2f, want > 1", sp)
	}
	// Thread count clamps to the machine.
	sys := Simulate(cs.Original, Skylake(), 99)
	if len(sys.L1) != Skylake().Threads {
		t.Errorf("cores = %d, want clamp to %d", len(sys.L1), Skylake().Threads)
	}
}

func TestFacadeModels(t *testing.T) {
	m := DefaultModel()
	if !m.Predict(0.9) || m.Predict(0.05) {
		t.Error("default model verdicts wrong")
	}
	om := DefaultOverheadModel()
	if om.Profiling(1000, 10) <= 1 {
		t.Error("overhead model broken")
	}
}

func TestFacadeTypesInterop(t *testing.T) {
	// Aliases must interoperate with internal values without conversion.
	var s Sink = trace.Discard
	var e *Emitter = trace.NewEmitter(s)
	e.Ref(Ref{})
	e.Flush()
}
