package ccprofd

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pmu"
	"repro/internal/report"
	"repro/internal/workloads"
)

// executeSpec runs one validated job spec and renders its artifact bytes.
// Artifacts must be pure functions of (spec, seed): no wall clock, no
// worker counts, no job IDs — that is what makes the artifact store's
// content addressing line up across clean and resumed runs.
func executeSpec(ctx context.Context, spec Spec, seed int64) ([]byte, error) {
	switch spec.Kind {
	case KindProfile:
		return executeProfile(ctx, spec, seed)
	case KindAdvise:
		return executeAdvise(ctx, spec)
	case KindExperiment:
		return executeExperiment(ctx, spec)
	}
	return nil, fmt.Errorf("%w: unknown kind %q", ErrBadSpec, spec.Kind)
}

// executeProfile profiles one workload variant and renders the same
// report ccprof prints, minus its wall-clock overhead figure.
func executeProfile(ctx context.Context, spec Spec, seed int64) ([]byte, error) {
	cs, err := workloads.Get(spec.Workload)
	if err != nil {
		return nil, err
	}
	prog := cs.Original
	if spec.Variant == "optimized" {
		prog = cs.Optimized
	}
	period := spec.Period
	if period == 0 {
		period = cs.ProfilePeriod
	}
	prof, err := core.ProfileProgram(prog, core.ProfileOptions{
		Period:  pmu.Uniform(period),
		Seed:    seed,
		Threads: spec.Threads,
		NoTime:  true, // wall clock would break byte-identical resume
		Faults:  spec.plan(seed),
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	an, err := core.Analyze(prof, prog.Binary, prog.Arena, core.AnalyzeOptions{Threshold: spec.Threshold})
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "profiled %s: %d refs, %d L1-miss events, %d samples (mean period %.0f)\n",
		prog.Name, prof.Refs, prof.Events, prof.SampleCount(), prof.PeriodMean)
	if prof.Degraded() {
		note := report.DegradedNote{
			SamplesDropped: prof.FaultDropped + prof.FaultTruncated,
			SamplesAltered: prof.FaultCorrupted,
		}
		if err := note.Write(&b); err != nil {
			return nil, err
		}
	}
	b.WriteString("\n")
	if err := core.WriteReport(&b, an); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// executeAdvise runs the tiered pad sweep and renders the ccprof advisor
// table, minus its worker-count line (a config detail, not a result).
func executeAdvise(ctx context.Context, spec Spec) ([]byte, error) {
	cs, err := workloads.Get(spec.Workload)
	if err != nil {
		return nil, err
	}
	if cs.PadBuilder == nil {
		return nil, fmt.Errorf("%s has no pad builder (its fix is not a row pad)", cs.Name)
	}
	res, err := advisor.RecommendPad(cs.PadBuilder, advisor.Options{
		Tiers: advisor.Cascade(),
		Spec:  cs.SpecBuilder(),
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "pad sweep for %s\n\n", cs.Name)
	if err := res.WriteText(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// executeExperiment runs one named figure/table runner into the artifact
// buffer. Runners are deterministic by contract (the golden tests depend
// on it), so their output is content-addressable as-is.
func executeExperiment(ctx context.Context, spec Spec) ([]byte, error) {
	runner, ok := experiments.Registry()[spec.Experiment]
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", spec.Experiment)
	}
	scale := experiments.Full
	label := "full"
	if spec.Quick {
		scale = experiments.Quick
		label = "quick"
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "experiment %s (%s scale)\n\n", spec.Experiment, label)
	if err := runner(&b, scale); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
