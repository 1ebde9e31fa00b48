package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// profileWL is what `ccprof <workload>` does: build the case study, profile
// one variant at its recommended period, analyze and render the report.
// Ops cycle through every case study × {original, optimized}.
type profileWL struct {
	seed   int64
	ops    []variant
	report bytes.Buffer

	// Ladder state, reused across ops like the sampler's own pooled L1.
	l1 l1Sink

	// Counts of the first traced pass; they must repeat exactly.
	refs, l1Misses, events, samples uint64
}

type variant struct {
	name      string
	optimized bool
}

func (v variant) String() string {
	if v.optimized {
		return v.name + " optimized"
	}
	return v.name + " original"
}

func (v variant) program(cs *workloads.CaseStudy) *workloads.Program {
	if v.optimized {
		return cs.Optimized
	}
	return cs.Original
}

func newProfileWL(seed int64) (passWorkload, error) {
	w := &profileWL{seed: seed, l1: l1Sink{c: cache.New(mem.L1Default(), cache.LRU, nil)}}
	for _, name := range caseNames() {
		if _, err := workloads.Get(name); err != nil {
			return nil, err
		}
		w.ops = append(w.ops, variant{name, false}, variant{name, true})
	}
	return w, nil
}

func (w *profileWL) kinds() int { return len(w.ops) }

func (w *profileWL) options(cs *workloads.CaseStudy, i int) core.ProfileOptions {
	return core.ProfileOptions{
		Period:  pmu.Uniform(cs.ProfilePeriod),
		Seed:    opSeed(w.seed, "profile", i),
		Threads: 1,
		NoTime:  true,
	}
}

func (w *profileWL) op(i int, tr *tracer) (time.Duration, float64, error) {
	v := w.ops[i%len(w.ops)]
	start := time.Now()
	opSpan := tr.start(i, 0, "op")
	sp := tr.start(i, opSpan, "workloads.build")
	cs, err := workloads.Get(v.name)
	tr.end(sp)
	if err != nil {
		return time.Since(start), 0, err
	}
	prog := v.program(cs)
	opts := w.options(cs, i)
	sp = tr.start(i, opSpan, "core.profile")
	prof, err := core.ProfileProgram(prog, opts)
	tr.end(sp)
	if err != nil {
		return time.Since(start), 0, err
	}
	sp = tr.start(i, opSpan, "core.analyze")
	an, err := core.Analyze(prof, prog.Binary, prog.Arena, core.AnalyzeOptions{})
	tr.end(sp)
	if err != nil {
		return time.Since(start), 0, err
	}
	w.report.Reset()
	sp = tr.start(i, opSpan, "core.render")
	err = core.WriteReport(&w.report, an)
	tr.end(sp)
	tr.end(opSpan)
	took := time.Since(start)
	if err != nil {
		return took, 0, err
	}
	if err := checkReport(v.name, v.optimized, w.report.String()); err != nil {
		return took, float64(prof.Refs), err
	}
	if tr != nil {
		if err := w.ladder(i, opSpan, tr, v, opts, prof); err != nil {
			return took, float64(prof.Refs), err
		}
	}
	return took, float64(prof.Refs), nil
}

// ladder runs the rungs below core.ProfileProgram on the same op. Each rung
// gets a freshly built program, as the op does, so every rung pays the
// same lazy value fill and the differences between rungs isolate one layer.
func (w *profileWL) ladder(i, opSpan int, tr *tracer, v variant, opts core.ProfileOptions, prof *core.Profile) error {
	fresh := func() (*workloads.Program, error) {
		cs, err := workloads.Get(v.name)
		if err != nil {
			return nil, err
		}
		return v.program(cs), nil
	}

	p, err := fresh()
	if err != nil {
		return err
	}
	sp := tr.start(i, opSpan, "workloads.emit")
	p.RunThread(0, 1, trace.Discard)
	tr.end(sp)

	if p, err = fresh(); err != nil {
		return err
	}
	w.l1.reset()
	sp = tr.start(i, opSpan, "cache.l1+emit")
	p.RunThread(0, 1, &w.l1)
	tr.end(sp)
	tr.add("cache.block", w.l1.blocks, w.l1.refs)
	if w.l1.refs != prof.Refs || w.l1.misses != prof.Events {
		return fmt.Errorf("%s: plain L1 model saw %d refs / %d misses, the profiler %d refs / %d miss events",
			v, w.l1.refs, w.l1.misses, prof.Refs, prof.Events)
	}

	if p, err = fresh(); err != nil {
		return err
	}
	sp = tr.start(i, opSpan, "core.stream")
	_, an, err := core.ProfileStream(p, opts, core.AnalyzeOptions{})
	tr.end(sp)
	if err != nil {
		return err
	}
	var b bytes.Buffer
	if err := core.WriteReport(&b, an); err != nil {
		return err
	}
	if err := checkReport(v.name, v.optimized, b.String()); err != nil {
		return fmt.Errorf("streaming: %w", err)
	}

	if i < len(w.ops) {
		w.refs += prof.Refs
		w.l1Misses += w.l1.misses
		w.events += prof.Events
		w.samples += uint64(prof.SampleCount())
	}
	return nil
}

func (w *profileWL) layers(tr *tracer, untracedMS, tracedMS float64) (map[string]float64, []namedValue) {
	build := tr.meanMS("workloads.build")
	emit := tr.meanMS("workloads.emit")
	l1emit := tr.meanMS("cache.l1+emit")
	profile := tr.meanMS("core.profile")
	analyze := tr.meanMS("core.analyze")
	render := tr.meanMS("core.render")
	stream := tr.meanMS("core.stream")
	l1 := l1emit - emit
	sample := profile - l1emit
	sum := build + emit + l1 + sample + analyze + render
	m := map[string]float64{
		"workloads.build_ms":     build,
		"workloads.emit_ms":      emit,
		"cache.l1_ms":            l1,
		"pmu.sample_ms":          sample,
		"core.analyze_ms":        analyze,
		"core.render_ms":         render,
		"core.stream_ms":         stream,
		"profile.unaccounted_ms": untracedMS - sum,
		"profile.overhead_x":     profile / emit,
		"trace.overhead_x":       tracedMS / untracedMS,
		"workloads.refs":         float64(w.refs),
		"cache.l1_misses":        float64(w.l1Misses),
		"pmu.events":             float64(w.events),
		"pmu.samples":            float64(w.samples),
	}
	stages := []namedValue{
		{"workloads.build", build, "ms"},
		{"workloads.emit", emit, "ms"},
		{"cache.l1", l1, "ms"},
		{"pmu.sample", sample, "ms"},
		{"core.analyze", analyze, "ms"},
		{"core.render", render, "ms"},
		{"sum of rungs", sum, "ms"},
		{"untraced op", untracedMS, "ms"},
		{"profile.unaccounted", untracedMS - sum, "ms"},
		{"traced op", tracedMS, "ms"},
		{"tracing overhead", tracedMS/untracedMS - 1, "ratio"},
		{"core.stream (-stream path)", stream, "ms"},
		{"profile.overhead_x", profile / emit, "x"},
	}
	return m, stages
}

// l1Sink is the benchmark's own cache rung: a plain L1 model fed in
// struct-of-arrays blocks, as the profiler's sampler is, without sampling.
type l1Sink struct {
	c                    *cache.Cache
	miss                 []int32
	blocks, refs, misses uint64
}

func (s *l1Sink) reset() {
	s.c.Reset()
	s.blocks, s.refs, s.misses = 0, 0, 0
}

// Ref implements trace.Sink for producers that do not stage blocks.
func (s *l1Sink) Ref(r trace.Ref) {
	s.refs++
	if !s.c.AccessHit(r.Addr) {
		s.misses++
	}
}

// RefBlock implements trace.BlockSink.
func (s *l1Sink) RefBlock(b *trace.RefBlock) {
	s.blocks++
	s.refs += uint64(len(b.Addr))
	s.miss = s.c.BlockMisses(b.Addr, s.miss[:0])
	s.misses += uint64(len(s.miss))
}
