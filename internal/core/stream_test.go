package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/parsim"
	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// mustJSON marshals v for byte comparison.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestProfileStreamMatchesBuffered is the heart of the streaming
// differential suite: for identical options and seeds, the fused
// ProfileStream must produce an Analysis byte-identical to the two-phase
// ProfileProgram+Analyze pipeline — across thread counts and in burst
// mode — plus identical profile counters.
func TestProfileStreamMatchesBuffered(t *testing.T) {
	cases := []struct {
		name    string
		prog    *workloads.Program
		threads int
		burst   int
	}{
		{"tinydnn-seq", workloads.NewTinyDNN(64, 512, 1).Original, 1, 0},
		{"nw-8thread", workloads.NewNW(256, 16).Original, 8, 0},
		{"fft-burst", workloads.NewFFT(128).Original, 2, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			popts := ProfileOptions{
				Period:  pmu.Uniform(171),
				Seed:    42,
				Threads: tc.threads,
				Burst:   tc.burst,
				NoTime:  true,
			}
			prof, err := ProfileProgram(tc.prog, popts)
			if err != nil {
				t.Fatal(err)
			}
			anBuf, err := Analyze(prof, tc.prog.Binary, tc.prog.Arena, AnalyzeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sprof, anStream, err := ProfileStream(tc.prog, popts, AnalyzeOptions{})
			if err != nil {
				t.Fatal(err)
			}

			if got, want := mustJSON(t, anStream), mustJSON(t, anBuf); !bytes.Equal(got, want) {
				t.Errorf("streaming analysis differs from buffered:\n%s\n---\n%s", got, want)
			}
			if sprof.Events != prof.Events || sprof.Refs != prof.Refs {
				t.Errorf("stream profile counters: events %d refs %d, want %d and %d",
					sprof.Events, sprof.Refs, prof.Events, prof.Refs)
			}
			if sprof.SampleCount() != prof.SampleCount() {
				t.Errorf("stream SampleCount = %d, buffered = %d", sprof.SampleCount(), prof.SampleCount())
			}
			for tid, s := range sprof.Samples {
				if len(s) > 0 {
					t.Errorf("streaming profile buffered %d samples for thread %d; must stay empty", len(s), tid)
				}
			}
		})
	}
}

// TestProfileStreamObsParity pins the observability side of equivalence:
// the deterministic obs snapshot (counters and histograms) after a
// streaming run must be byte-identical to the snapshot after the buffered
// two-phase pipeline.
func TestProfileStreamObsParity(t *testing.T) {
	snap := func(fn func()) []byte {
		obs.Default.Reset()
		fn()
		s := obs.Default.Snapshot().Deterministic()
		s.Gauges = nil
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	popts := ProfileOptions{Period: pmu.Uniform(171), Seed: 7, Threads: 4, NoTime: true}

	buffered := snap(func() {
		cs := workloads.NewNW(256, 16)
		prof, err := ProfileProgram(cs.Original, popts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Analyze(prof, cs.Original.Binary, cs.Original.Arena, AnalyzeOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	streamed := snap(func() {
		cs := workloads.NewNW(256, 16)
		if _, _, err := ProfileStream(cs.Original, popts, AnalyzeOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	obs.Default.Reset()
	if !bytes.Equal(buffered, streamed) {
		t.Errorf("obs snapshots differ between buffered and streaming paths:\n%s\n---\n%s", buffered, streamed)
	}
}

// recordFramedTrace records a program's reference stream into an in-memory
// framed trace with the given frame size.
func recordFramedTrace(t *testing.T, p *workloads.Program, frameSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewTraceWriter(&buf, frameSize)
	p.RunThread(0, 1, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestProfileTraceShardedDeterministic pins trace profiling's determinism
// contract: byte-identical profiles at any worker count, because every
// segment derives its own sampler seed from the root seed and segment
// index.
func TestProfileTraceShardedDeterministic(t *testing.T) {
	data := recordFramedTrace(t, workloads.NewNW(128, 16).Original, 512)
	open := func() (io.ReadSeeker, error) { return bytes.NewReader(data), nil }

	run := func(workers int) []byte {
		prof, err := ProfileTrace("nw-trace", open, TraceProfileOptions{
			Period:        pmu.Uniform(171),
			Seed:          42,
			SegmentFrames: 4,
			Parallel:      parsim.Options{Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(prof.Samples) < 2 {
			t.Fatalf("trace split into %d segments; want at least 2 for the test to mean anything", len(prof.Samples))
		}
		return mustJSON(t, prof)
	}
	serial, parallel := run(1), run(8)
	if !bytes.Equal(serial, parallel) {
		t.Error("sharded trace profile differs between -j1 and -j8")
	}
}

// TestProfileTraceResume exercises the checkpoint story end to end: a run
// that dies mid-trace leaves completed segments in the checkpoint; the
// resumed run re-profiles only the missing segments and produces a profile
// byte-identical to an uninterrupted run.
func TestProfileTraceResume(t *testing.T) {
	data := recordFramedTrace(t, workloads.NewNW(128, 16).Original, 512)
	ckPath := filepath.Join(t.TempDir(), "trace.ck")
	topts := func(ck *parsim.Checkpoint, workers int) TraceProfileOptions {
		o := TraceProfileOptions{
			Period:        pmu.Uniform(171),
			Seed:          42,
			SegmentFrames: 4,
			Parallel:      parsim.Options{Workers: workers},
		}
		o.Parallel.Checkpoint = ck
		return o
	}
	goodOpen := func() (io.ReadSeeker, error) { return bytes.NewReader(data), nil }

	clean, err := ProfileTrace("nw-trace", goodOpen, topts(nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	nseg := len(clean.Samples)
	if nseg < 3 {
		t.Fatalf("only %d segments; the interrupted-run scenario needs at least 3", nseg)
	}

	// First run: the trace source dies after the index scan and two
	// segments. The run fails, but the completed segments are in the
	// checkpoint.
	var opens atomic.Int64
	dyingOpen := func() (io.ReadSeeker, error) {
		if opens.Add(1) > 3 {
			return nil, errors.New("trace source gone")
		}
		return bytes.NewReader(data), nil
	}
	if _, err := ProfileTrace("nw-trace", dyingOpen, topts(&parsim.Checkpoint{Path: ckPath}, 1)); err == nil {
		t.Fatal("interrupted run unexpectedly succeeded")
	}

	// Resume: only the segments missing from the checkpoint re-run (the
	// open count proves it), and the result matches the clean run exactly.
	opens.Store(0)
	countingOpen := func() (io.ReadSeeker, error) {
		opens.Add(1)
		return bytes.NewReader(data), nil
	}
	resumed, err := ProfileTrace("nw-trace", countingOpen, topts(&parsim.Checkpoint{Path: ckPath, Resume: true}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, resumed), mustJSON(t, clean); !bytes.Equal(got, want) {
		t.Error("resumed trace profile differs from uninterrupted run")
	}
	// 1 open for the index scan + one per re-profiled segment; 2 segments
	// were restored.
	if got, want := opens.Load(), int64(1+nseg-2); got != want {
		t.Errorf("resumed run opened the trace %d times, want %d (2 segments should restore from checkpoint)", got, want)
	}
}

// TestProfileTraceEmpty covers the degenerate stream.
func TestProfileTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewTraceWriter(&buf, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	prof, err := ProfileTrace("empty", func() (io.ReadSeeker, error) { return bytes.NewReader(data), nil },
		TraceProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Refs != 0 || prof.SampleCount() != 0 || len(prof.Samples) != 0 {
		t.Errorf("empty trace produced refs=%d samples=%d segments=%d", prof.Refs, prof.SampleCount(), len(prof.Samples))
	}
}

// TestStreamingBoundedMemory is the bounded-memory ratchet (the streaming
// mode's reason to exist): consuming a 100x longer reference stream through
// the online analyzer must not grow heap allocations — every per-sample
// structure is either pooled, reused, or O(contexts x sets). A regression
// here means some buffer scales with trace length again.
func TestStreamingBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is not meaningful under -short")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops values at random under -race, so pooled allocations cannot be counted")
	}
	p := workloads.NewNW(128, 16).Original
	rec := p.Record()
	refs := rec.Refs
	if len(refs) > 16384 {
		refs = refs[:16384]
	}
	var base trace.RefBlock
	base.AppendRefs(refs)

	s := pmu.NewSampler(pmu.Config{Geom: mem.L1Default(), Period: pmu.Uniform(171), Seed: 42})
	stream := func(times int) float64 {
		return testing.AllocsPerRun(3, func() {
			sa, err := NewStreamAnalyzer(p.Binary, p.Arena, mem.L1Default(), 1, 1, AnalyzeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			s.Reconfigure(pmu.Config{Geom: mem.L1Default(), Period: pmu.Uniform(171), Seed: 42})
			s.Handler = sa.HandlerFor(0)
			for i := 0; i < times; i++ {
				s.RefBlock(&base)
			}
			s.Handler = nil
			if an := sa.Finish(p.Name); an.TotalSamples == 0 {
				t.Fatal("no samples streamed; the measurement is vacuous")
			}
		})
	}
	stream(1) // warm every pool (graph, attrState, trackers, scratch)
	short := stream(1)
	long := stream(100)
	// Identical modulo pool noise: the long run streams 100x the
	// references and must not allocate for them. The slack absorbs
	// sync.Pool evictions between runs, nothing that scales.
	if long > short+64 {
		t.Errorf("streaming 100x the trace cost %.0f allocs vs %.0f for 1x; memory is no longer bounded", long, short)
	}
}

// TestProfileStreamArenaGrowsDuringRun covers a kernel that allocates
// while it runs. ProfileStream builds its analyzer before the workload
// starts, so data attribution must take in blocks allocated later, as the
// buffered pipeline (which analyzes after the run) does. One instruction
// touches both arrays, so its block guess is wrong half the time.
func TestProfileStreamArenaGrowsDuringRun(t *testing.T) {
	build := func() *workloads.Program {
		b := objfile.NewBuilder("late-alloc")
		b.Func("kernel")
		b.Loop("late.c", 3)
		ld := b.Load("late.c", 4)
		b.EndLoop()
		ar := alloc.NewArena()
		early := ar.Alloc("early", 1<<16, 0)
		return workloads.NewProgram("late-alloc", b.Finish(), ar, func(tid, threads int, sink *trace.Emitter) {
			late := ar.Alloc("late", 1<<16, 0)
			for i := uint64(0); i < 1<<15; i++ {
				sink.Ref(trace.Ref{IP: ld, Addr: early.Start + i*4096%early.Size})
				sink.Ref(trace.Ref{IP: ld, Addr: late.Start + i*4160%late.Size})
			}
		})
	}
	popts := ProfileOptions{Period: pmu.Uniform(31), Seed: 42, NoTime: true}
	p := build()
	prof, err := ProfileProgram(p, popts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(prof, p.Binary, p.Arena, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := ProfileStream(build(), popts, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Data) != 2 {
		t.Fatalf("buffered analysis attributes data to %+v, want early and late", want.Data)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(g, w) {
		t.Errorf("streaming analysis differs from buffered:\n%s\n---\n%s", g, w)
	}
}
