package main

import (
	"fmt"
	"time"

	"repro/internal/advisor"
	"repro/internal/analytic"
	"repro/internal/mem"
	"repro/internal/staticconf"
	"repro/internal/workloads"
)

// adviseWL is what `ccprof -advise` and ccprofd advise jobs do: the tiered
// pad sweep of one case study over advisor.DefaultPads, on the sweep
// executor at its default worker count. Ops cycle through the case
// studies, starting at one the seed picks.
type adviseWL struct {
	names []string
	best  map[string]uint64 // each case study's first recommendation

	// Counts of the first traced pass; they must repeat exactly.
	pads, sims, pruned, prunedAnalytic, prunedStatic uint64
}

func newAdviseWL(seed int64) (passWorkload, error) {
	names := caseNames()
	first := int(uint64(seed) % uint64(len(names)))
	w := &adviseWL{best: map[string]uint64{}}
	for k := range names {
		name := names[(first+k)%len(names)]
		cs, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		if cs.PadBuilder == nil || cs.SpecBuilder() == nil {
			return nil, fmt.Errorf("%s has no pad builder or access spec", name)
		}
		w.names = append(w.names, name)
	}
	return w, nil
}

func (w *adviseWL) kinds() int { return len(w.names) }

func (w *adviseWL) op(i int, tr *tracer) (time.Duration, float64, error) {
	name := w.names[i%len(w.names)]
	start := time.Now()
	opSpan := tr.start(i, 0, "op")
	cs, err := workloads.Get(name)
	if err != nil {
		return time.Since(start), 0, err
	}
	sp := tr.start(i, opSpan, "advisor.recommend")
	res, err := advisor.RecommendPad(cs.PadBuilder, advisor.Options{
		Tiers: advisor.Cascade(),
		Spec:  cs.SpecBuilder(),
	})
	tr.end(sp)
	tr.end(opSpan)
	took := time.Since(start)
	if err != nil {
		return took, 0, err
	}
	pads := len(res.Candidates) + len(res.Pruned)
	if err := w.check(name, res); err != nil {
		return took, float64(pads), err
	}
	if tr != nil {
		if err := w.ladder(i, opSpan, tr, cs, res); err != nil {
			return took, float64(pads), err
		}
		if i < len(w.names) {
			w.pads += uint64(pads)
			w.sims += uint64(len(res.Candidates))
			w.pruned += uint64(len(res.Pruned))
			w.prunedAnalytic += uint64(len(res.PrunedAnalytic))
			w.prunedStatic += uint64(len(res.PrunedStatic))
		}
	}
	return took, float64(pads), nil
}

// check holds a recommendation to the answer table: a non-zero pad, that
// removes the L1 conflict signature where the paper's pad does, and the
// same pad every time.
func (w *adviseWL) check(name string, res advisor.Result) error {
	pad := res.Best.Pad
	if pad == 0 {
		return fmt.Errorf("advise %s: recommended no pad", name)
	}
	if answers[name].padClearsL1 && res.Best.CF >= 0.25 {
		return fmt.Errorf("advise %s: recommended pad %d still has cf %.3f", name, pad, res.Best.CF)
	}
	if prev, seen := w.best[name]; seen && prev != pad {
		return fmt.Errorf("advise %s: recommended pad %d, earlier %d", name, pad, prev)
	}
	w.best[name] = pad
	return nil
}

// ladder times the cascade's tiers on the same op: tier 0 (analytic) over
// every non-zero pad, tier 1 (staticconf) over the pads tier 0 left, and
// exact simulation of the pads the cascade simulated.
func (w *adviseWL) ladder(i, opSpan int, tr *tracer, cs *workloads.CaseStudy, res advisor.Result) error {
	geom := mem.L1Default()
	specOf := cs.SpecBuilder()

	sp := tr.start(i, opSpan, "analytic.eval")
	var survivors []*staticconf.Spec
	for _, pad := range advisor.DefaultPads {
		if pad == 0 {
			continue
		}
		spec := specOf(pad)
		if spec == nil {
			continue
		}
		r, err := analytic.Analyze(spec, geom, analytic.Options{SkipTouches: true})
		if err == nil && r.Conflict {
			continue
		}
		survivors = append(survivors, spec)
	}
	tr.end(sp)

	sp = tr.start(i, opSpan, "staticconf.eval")
	for _, spec := range survivors {
		if _, err := staticconf.Analyze(spec, geom, staticconf.Options{}); err != nil {
			tr.end(sp)
			return fmt.Errorf("advise %s: static tier: %w", cs.Name, err)
		}
	}
	tr.end(sp)

	simulated := make([]uint64, len(res.Candidates))
	for k, c := range res.Candidates {
		simulated[k] = c.Pad
	}
	sp = tr.start(i, opSpan, "advisor.sim")
	_, err := advisor.RecommendPad(cs.PadBuilder, advisor.Options{Pads: simulated})
	tr.end(sp)
	return err
}

func (w *adviseWL) layers(tr *tracer, untracedMS, tracedMS float64) (map[string]float64, []namedValue) {
	an := tr.meanMS("analytic.eval")
	st := tr.meanMS("staticconf.eval")
	sim := tr.meanMS("advisor.sim")
	sum := an + st + sim
	m := map[string]float64{
		"analytic.eval_ms":        an,
		"staticconf.eval_ms":      st,
		"advisor.sim_ms":          sim,
		"advisor.sims":            float64(w.sims),
		"advisor.pruned_analytic": float64(w.prunedAnalytic),
		"advisor.pruned_static":   float64(w.prunedStatic),
		"advisor.pruned_ratio":    float64(w.pruned) / float64(w.pads),
		"advise.unaccounted_ms":   untracedMS - sum,
		"trace.overhead_x":        tracedMS / untracedMS,
	}
	stages := []namedValue{
		{"analytic.eval", an, "ms"},
		{"staticconf.eval", st, "ms"},
		{"advisor.sim", sim, "ms"},
		{"sum of rungs", sum, "ms"},
		{"untraced op", untracedMS, "ms"},
		{"advise.unaccounted", untracedMS - sum, "ms"},
		{"traced op", tracedMS, "ms"},
		{"tracing overhead", tracedMS/untracedMS - 1, "ratio"},
		{"pads decided per pass", float64(w.pads), "count"},
	}
	return m, stages
}
