package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/pmu"
	"repro/internal/workloads"
)

// analyzeWL is what `ccprof -analyze FILE <workload>` does: read a saved
// profile, analyze it and render the report. Set-up records one profile
// per case study × variant × period {recommended, 31} × threads {1, 2}
// into memory; ops cycle through them.
type analyzeWL struct {
	saved  []savedProfile
	report bytes.Buffer

	// Counts of the first traced pass; they must repeat exactly.
	samples, loops, unattributed uint64
}

type savedProfile struct {
	variant
	prog *workloads.Program // never run: supplies the binary and arena
	data []byte             // the profile as core.Profile.WriteTo wrote it
}

func newAnalyzeWL(seed int64) (passWorkload, error) {
	w := &analyzeWL{}
	for _, name := range caseNames() {
		// The programs that are profiled fill their value arrays; the
		// ops analyze against a second, never-run build of the same
		// case study, as a separate ccprof -analyze process would.
		run, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		keep, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		for _, v := range []variant{{name, false}, {name, true}} {
			for _, period := range []uint64{run.ProfilePeriod, 31} {
				for _, threads := range []int{1, 2} {
					prof, err := core.ProfileProgram(v.program(run), core.ProfileOptions{
						Period:  pmu.Uniform(period),
						Seed:    opSeed(seed, "analyze", len(w.saved)),
						Threads: threads,
						NoTime:  true,
					})
					if err != nil {
						return nil, err
					}
					var b bytes.Buffer
					if _, err := prof.WriteTo(&b); err != nil {
						return nil, err
					}
					w.saved = append(w.saved, savedProfile{v, v.program(keep), b.Bytes()})
				}
			}
		}
	}
	return w, nil
}

func (w *analyzeWL) kinds() int { return len(w.saved) }

func (w *analyzeWL) op(i int, tr *tracer) (time.Duration, float64, error) {
	sp := &w.saved[i%len(w.saved)]
	start := time.Now()
	opSpan := tr.start(i, 0, "op")
	s := tr.start(i, opSpan, "core.read_profile")
	prof, err := core.ReadProfile(bytes.NewReader(sp.data))
	tr.end(s)
	if err != nil {
		return time.Since(start), 0, err
	}
	s = tr.start(i, opSpan, "core.analyze")
	an, err := core.Analyze(prof, sp.prog.Binary, sp.prog.Arena, core.AnalyzeOptions{})
	tr.end(s)
	if err != nil {
		return time.Since(start), 0, err
	}
	w.report.Reset()
	s = tr.start(i, opSpan, "core.render")
	err = core.WriteReport(&w.report, an)
	tr.end(s)
	tr.end(opSpan)
	took := time.Since(start)
	n := float64(prof.SampleCount())
	if err != nil {
		return took, n, err
	}
	if err := checkReport(sp.name, sp.optimized, w.report.String()); err != nil {
		return took, n, err
	}
	if an.TotalSamples != prof.SampleCount() {
		return took, n, fmt.Errorf("%s: analysis covers %d of %d samples", sp.variant, an.TotalSamples, prof.SampleCount())
	}
	if tr != nil {
		s = tr.start(i, opSpan, "cfg.build")
		_, err := cfg.Build(sp.prog.Binary)
		tr.end(s)
		if err != nil {
			return took, n, err
		}
		if i < len(w.saved) {
			w.samples += uint64(an.TotalSamples)
			w.loops += uint64(len(an.Loops))
			w.unattributed += uint64(an.Unattributed)
		}
	}
	return took, n, nil
}

func (w *analyzeWL) layers(tr *tracer, untracedMS, tracedMS float64) (map[string]float64, []namedValue) {
	read := tr.meanMS("core.read_profile")
	analyze := tr.meanMS("core.analyze")
	render := tr.meanMS("core.render")
	build := tr.meanMS("cfg.build")
	sum := read + analyze + render
	// Samples per op, over the same whole passes the spans cover.
	perOp := float64(w.samples) / float64(len(w.saved))
	m := map[string]float64{
		"core.read_profile_ms":   read,
		"cfg.build_ms":           build,
		"core.analyze_ms":        analyze,
		"core.render_ms":         render,
		"core.ns_per_sample":     sum * 1e6 / perOp,
		"core.samples":           float64(w.samples),
		"core.loops":             float64(w.loops),
		"core.attributed_ratio":  float64(w.samples-w.unattributed) / float64(w.samples),
		"analyze.unaccounted_ms": untracedMS - sum,
		"trace.overhead_x":       tracedMS / untracedMS,
	}
	stages := []namedValue{
		{"core.read_profile", read, "ms"},
		{"core.analyze", analyze, "ms"},
		{"  of which cfg.build", build, "ms"},
		{"core.render", render, "ms"},
		{"sum of rungs", sum, "ms"},
		{"untraced op", untracedMS, "ms"},
		{"analyze.unaccounted", untracedMS - sum, "ms"},
		{"traced op", tracedMS, "ms"},
		{"tracing overhead", tracedMS/untracedMS - 1, "ratio"},
	}
	return m, stages
}
