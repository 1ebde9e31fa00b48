package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/objfile"
	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// profileAndAnalyze is the end-to-end pipeline used throughout the tests:
// online profiling at a fast period (for dense samples on small kernels),
// then offline analysis.
func profileAndAnalyze(t *testing.T, p *workloads.Program, period uint64) (*Profile, *Analysis) {
	t.Helper()
	prof, err := ProfileProgram(p, ProfileOptions{
		Period: pmu.Uniform(period),
		Seed:   7,
		NoTime: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(prof, p.Binary, p.Arena, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return prof, an
}

func TestProfileCollectsSamples(t *testing.T) {
	cs := workloads.NewADI(256, 1)
	prof, err := ProfileProgram(cs.Original, ProfileOptions{Period: pmu.Fixed(100), Seed: 1, NoTime: true})
	if err != nil {
		t.Fatal(err)
	}
	if prof.SampleCount() == 0 {
		t.Fatal("no samples collected")
	}
	if prof.Events == 0 || prof.Refs == 0 {
		t.Errorf("events=%d refs=%d, want nonzero", prof.Events, prof.Refs)
	}
	if prof.Events > prof.Refs {
		t.Error("more miss events than references")
	}
	if got := uint64(prof.SampleCount()); got > prof.Events {
		t.Error("more samples than events")
	}
	if prof.Workload != cs.Original.Name {
		t.Errorf("workload name = %q", prof.Workload)
	}
}

func TestProfileNilProgram(t *testing.T) {
	if _, err := ProfileProgram(nil, ProfileOptions{}); err == nil {
		t.Error("nil program should error")
	}
}

func TestProfileMeasuredOverhead(t *testing.T) {
	cs := workloads.NewSymmetrization(64)
	prof, err := ProfileProgram(cs.Original, ProfileOptions{Period: pmu.Fixed(50), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if prof.BaselineNs <= 0 || prof.ProfiledNs <= 0 {
		t.Fatal("timings not recorded")
	}
	if prof.MeasuredOverhead() <= 0 {
		t.Error("MeasuredOverhead should be positive")
	}
}

func TestAnalyzeDetectsADIConflict(t *testing.T) {
	cs := workloads.NewADI(512, 1)
	_, anOrig := profileAndAnalyze(t, cs.Original, 171)
	_, anOpt := profileAndAnalyze(t, cs.Optimized, 171)

	if !anOrig.Conflict {
		t.Errorf("original ADI not flagged (program cf=%.3f)", anOrig.CF)
	}
	if anOpt.Conflict {
		t.Errorf("padded ADI flagged (program cf=%.3f)", anOpt.CF)
	}
	if anOrig.CF <= anOpt.CF {
		t.Errorf("cf did not drop after padding: %.3f -> %.3f", anOrig.CF, anOpt.CF)
	}

	// Code-centric attribution: the column-sweep loop must dominate and
	// be flagged.
	target, ok := anOrig.TargetLoop(cs.TargetLoop)
	if !ok {
		t.Fatalf("target loop %s not in report: %+v", cs.TargetLoop, anOrig.Loops)
	}
	if !target.Conflict {
		t.Errorf("target loop not flagged: %+v", target)
	}
	if target.Contribution < 0.5 {
		t.Errorf("target loop contribution = %.2f, want > 0.5 (paper: 80%%)", target.Contribution)
	}
}

func TestAnalyzeDataCentricADI(t *testing.T) {
	cs := workloads.NewADI(512, 1)
	_, an := profileAndAnalyze(t, cs.Original, 171)
	if len(an.Data) == 0 {
		t.Fatal("no data-centric attribution")
	}
	// Matrix u is the paper's victim. All three ADI matrices share the
	// conflicting layout here, so u must appear among the top victims
	// with a dominant share of short-RCD samples.
	found := false
	for _, d := range an.Data[:min(3, len(an.Data))] {
		if d.Name == "u" {
			found = true
			if d.ShortRCD*2 < d.Samples {
				t.Errorf("u has only %d/%d short-RCD samples", d.ShortRCD, d.Samples)
			}
		}
	}
	if !found {
		t.Errorf("u not among top data structures: %+v", an.Data)
	}
}

func TestAnalyzeCleanKernel(t *testing.T) {
	p := workloads.Kmeans()
	_, an := profileAndAnalyze(t, p, 171)
	if an.Conflict {
		t.Errorf("kmeans flagged as conflicted (cf=%.3f)", an.CF)
	}
	for _, l := range an.Loops {
		if l.Conflict {
			t.Errorf("kmeans loop %s flagged (cf=%.3f, samples=%d)", l.Loop, l.CF, l.Samples)
		}
	}
}

func TestAnalyzeLoopOrdering(t *testing.T) {
	cs := workloads.NewNW(256, 16)
	_, an := profileAndAnalyze(t, cs.Original, 63)
	if len(an.Loops) < 3 {
		t.Fatalf("expected several active loops, got %d", len(an.Loops))
	}
	for i := 1; i < len(an.Loops); i++ {
		if an.Loops[i].Samples > an.Loops[i-1].Samples {
			t.Error("loops not sorted by sample count")
		}
	}
	var totalContrib float64
	for _, l := range an.Loops {
		totalContrib += l.Contribution
	}
	if totalContrib > 1.0001 {
		t.Errorf("loop contributions sum to %.3f > 1", totalContrib)
	}
	if an.ActiveInnerLoops == 0 {
		t.Error("no active inner loops counted")
	}
}

func TestAnalyzeCDFMonotone(t *testing.T) {
	cs := workloads.NewADI(256, 1)
	_, an := profileAndAnalyze(t, cs.Original, 100)
	if len(an.CDF) == 0 {
		t.Fatal("no program CDF")
	}
	last := an.CDF[len(an.CDF)-1]
	if last.Cum < 0.999 {
		t.Errorf("CDF does not reach 1: %v", last)
	}
	for i := 1; i < len(an.CDF); i++ {
		if an.CDF[i].Cum < an.CDF[i-1].Cum || an.CDF[i].RCD <= an.CDF[i-1].RCD {
			t.Fatal("CDF not monotone")
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cs := workloads.NewSymmetrization(32)
	prof, _ := ProfileProgram(cs.Original, ProfileOptions{Period: pmu.Fixed(10), NoTime: true})
	if _, err := Analyze(nil, cs.Original.Binary, cs.Original.Arena, AnalyzeOptions{}); err == nil {
		t.Error("nil profile should error")
	}
	if _, err := Analyze(prof, nil, cs.Original.Arena, AnalyzeOptions{}); err == nil {
		t.Error("nil binary should error")
	}
	// nil arena is allowed: code-centric analysis only.
	an, err := Analyze(prof, cs.Original.Binary, nil, AnalyzeOptions{})
	if err != nil {
		t.Fatalf("nil arena should be permitted: %v", err)
	}
	if len(an.Data) != 0 {
		t.Error("nil arena should produce no data reports")
	}
}

func TestProfileThreads(t *testing.T) {
	cs := workloads.NewSymmetrization(64)
	prof, err := ProfileProgram(cs.Original, ProfileOptions{
		Period: pmu.Fixed(20), Seed: 3, Threads: 4, NoTime: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Samples) != 4 {
		t.Fatalf("thread sample groups = %d, want 4", len(prof.Samples))
	}
	nonEmpty := 0
	for _, s := range prof.Samples {
		if len(s) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Errorf("only %d threads produced samples", nonEmpty)
	}
	an, err := Analyze(prof, cs.Original.Binary, cs.Original.Arena, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if an.TotalSamples != prof.SampleCount() {
		t.Errorf("analysis consumed %d of %d samples", an.TotalSamples, prof.SampleCount())
	}
}

func TestDefaultModelSeparatesTrainingSet(t *testing.T) {
	m := DefaultModel()
	cf, labels := TrainingSet()
	for i, x := range cf {
		if m.Predict(x) != labels[i] {
			t.Errorf("builtin model misclassifies training point %d (cf=%.2f)", i, x)
		}
	}
	// Boundary sanity: between the clean cluster and the conflict cluster.
	b := m.Threshold()
	if b < 0.14 || b > 0.42 {
		t.Errorf("decision boundary = %.3f, want between clusters", b)
	}
}

func TestOverheadModel(t *testing.T) {
	m := DefaultOverheadModel()
	if got := m.Profiling(0, 0); got != 1 {
		t.Errorf("Profiling(0,0) = %g, want 1", got)
	}
	if got := m.Profiling(1000, 0); got != 1 {
		t.Errorf("no samples should cost nothing: %g", got)
	}
	low := m.Profiling(1_000_000, 100)
	high := m.Profiling(1_000_000, 10_000)
	if low >= high {
		t.Error("more samples must cost more")
	}
	if got := m.Simulation(0, 0); got != 1 {
		t.Errorf("Simulation(0,0) = %g", got)
	}
	whole := m.Simulation(1000, 1000)
	partial := m.Simulation(1000, 10)
	if whole <= partial || whole < 100 {
		t.Errorf("whole-app simulation overhead %g should dwarf partial %g", whole, partial)
	}
}

func TestOverheadRecommendedPeriodBand(t *testing.T) {
	// At the paper's recommended period the modeled overhead should land
	// in a low single-digit band (paper: 2.9x), and at period ~171 it
	// should be higher (paper: 9.3x at best F1).
	cs := workloads.NewADI(512, 1)
	m := DefaultOverheadModel()
	at := func(period uint64) float64 {
		prof, err := ProfileProgram(cs.Original, ProfileOptions{Period: pmu.Uniform(period), Seed: 1, NoTime: true})
		if err != nil {
			t.Fatal(err)
		}
		return m.ProfilingOf(prof)
	}
	oRec := at(pmu.DefaultPeriod)
	oFast := at(171)
	if oRec <= 1 || oRec > 6 {
		t.Errorf("overhead at SP=1212 is %.2fx, want low single digits", oRec)
	}
	if oFast <= oRec {
		t.Errorf("overhead at SP=171 (%.2fx) should exceed SP=1212 (%.2fx)", oFast, oRec)
	}
}

func TestProfileSerializationRoundTrip(t *testing.T) {
	cs := workloads.NewSymmetrization(64)
	prof, err := ProfileProgram(cs.Original, ProfileOptions{Period: pmu.Fixed(25), Seed: 5, Threads: 2, NoTime: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := prof.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != prof.Workload || got.Geom != prof.Geom ||
		got.PeriodMean != prof.PeriodMean || got.Events != prof.Events ||
		got.Refs != prof.Refs {
		t.Errorf("header mismatch: %+v vs %+v", got, prof)
	}
	if len(got.Samples) != len(prof.Samples) {
		t.Fatalf("thread count mismatch")
	}
	for tid := range prof.Samples {
		if len(got.Samples[tid]) != len(prof.Samples[tid]) {
			t.Fatalf("thread %d sample count mismatch", tid)
		}
		for i := range prof.Samples[tid] {
			if got.Samples[tid][i] != prof.Samples[tid][i] {
				t.Fatalf("sample %d/%d differs", tid, i)
			}
		}
	}
}

func TestReadProfileBadInput(t *testing.T) {
	if _, err := ReadProfile(bytes.NewReader([]byte("XXXXGARBAGE"))); err == nil {
		t.Error("bad magic should error")
	}
	if _, err := ReadProfile(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should error")
	}
	// Truncated valid prefix.
	cs := workloads.NewSymmetrization(32)
	prof, _ := ProfileProgram(cs.Original, ProfileOptions{Period: pmu.Fixed(10), NoTime: true})
	var buf bytes.Buffer
	if _, err := prof.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadProfile(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated profile should error")
	}
}

// craftedProfile is a 96-byte profile: magic, empty workload name, a
// 64/64/8 geometry, one thread whose count claims claim samples, and no
// samples.
func craftedProfile(claim uint64) []byte {
	b := []byte("CCP2\x00\x00\x00\x00")
	for _, v := range []uint64{64, 64, 8, 0, 0, 0, 0, 0, 0, 1, claim} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// TestReadProfileClaimBounded feeds ReadProfile headers that claim far
// more samples than the file holds: it must report the truncation, not
// allocate what the header claims.
func TestReadProfileClaimBounded(t *testing.T) {
	for _, claim := range []uint64{1 << 24, 1 << 32} {
		data := craftedProfile(claim)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadProfile(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "reading profile") {
			t.Errorf("claim %d: err = %v, want a profile read error wrapping io.ErrUnexpectedEOF", claim, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("claim %d: reading a %d-byte profile allocated %d bytes", claim, len(data), n)
		}
	}
}

func TestAnalysisEndToEndTinyDNN(t *testing.T) {
	cs := workloads.NewTinyDNN(128, 1024, 1)
	_, an := profileAndAnalyze(t, cs.Original, 171)
	if !an.Conflict {
		t.Errorf("tinydnn not flagged (cf=%.3f)", an.CF)
	}
	// W must be the dominant, conflicting data structure.
	if len(an.Data) == 0 || an.Data[0].Name != "W" {
		t.Fatalf("expected W as top data structure: %+v", an.Data)
	}
	_, anOpt := profileAndAnalyze(t, cs.Optimized, 171)
	if anOpt.Conflict {
		t.Errorf("padded tinydnn flagged (cf=%.3f)", anOpt.CF)
	}
}

func TestAnalyzeFunctionRollup(t *testing.T) {
	cs := workloads.NewADI(256, 1)
	_, an := profileAndAnalyze(t, cs.Original, 171)
	if len(an.Funcs) == 0 {
		t.Fatal("no function-level attribution")
	}
	if an.Funcs[0].Func != "kernel_adi" {
		t.Errorf("top function = %q, want kernel_adi", an.Funcs[0].Func)
	}
	var total float64
	for _, f := range an.Funcs {
		total += f.Contribution
		if f.CF < 0 || f.CF > 1 {
			t.Errorf("function %s cf out of range: %g", f.Func, f.CF)
		}
	}
	if total > 1.0001 {
		t.Errorf("function contributions sum to %g > 1", total)
	}
}

func TestAnalyzeFunctionRollupMultiFunc(t *testing.T) {
	// Two functions: the caller streams (clean), the callee thrashes one
	// set; per-function attribution must separate them.
	b := objfile.NewBuilder("twofuncs")
	b.Func("stream")
	b.Loop("s.c", 1)
	ldS := b.Load("s.c", 2)
	b.EndLoop()
	b.Func("thrash")
	b.Loop("t.c", 1)
	ldT := b.Load("t.c", 2)
	b.EndLoop()
	bin := b.Finish()
	ar := alloc.NewArena()
	big := ar.Alloc("stream_buf", 1<<22, 64)
	ring := ar.Alloc("ring", 16*4096, 4096)
	p := workloads.NewProgram("twofuncs", bin, ar, func(tid, threads int, sink trace.Sink) {
		if tid != 0 {
			return
		}
		for i := 0; i < 60_000; i++ {
			sink.Ref(trace.Ref{IP: ldS, Addr: big.Start + uint64(i*64)%big.Size})
			sink.Ref(trace.Ref{IP: ldT, Addr: ring.Start + uint64(i%16)*4096})
		}
	})
	_, an := profileAndAnalyze(t, p, 63)
	var stream, thrash FuncReport
	for _, f := range an.Funcs {
		switch f.Func {
		case "stream":
			stream = f
		case "thrash":
			thrash = f
		}
	}
	if stream.Samples == 0 || thrash.Samples == 0 {
		t.Fatalf("missing function rows: %+v", an.Funcs)
	}
	if thrash.CF <= stream.CF {
		t.Errorf("thrash cf %.2f should exceed stream cf %.2f", thrash.CF, stream.CF)
	}
}
