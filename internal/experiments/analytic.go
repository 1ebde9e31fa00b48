package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/advisor"
	"repro/internal/analytic"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/parsim"
	"repro/internal/rcd"
	"repro/internal/report"
	"repro/internal/staticconf"
	"repro/internal/workloads"
)

// AnalyticRow is one kernel variant in the three-way comparison: the
// closed-form verdict, the verdict of staticconf's enumerating analyzer
// (the reference the closed form is checked against), and the
// exact-simulation ground truth.
type AnalyticRow struct {
	App        string
	Analytic   bool    // closed-form model: conflict predicted
	Static     bool    // enumerating analyzer: conflict predicted
	Dynamic    bool    // exact simulation: conflict observed
	AnalyticCF float64 // closed-form predicted contribution factor
	StaticCF   float64 // enumerator's predicted contribution factor
	ExactCF    float64 // exact cf from the full reference stream
	Exact      bool    // the closed-form model claims exact arithmetic
}

// Agree reports whether the analytic verdict matches the dynamic one.
func (r AnalyticRow) Agree() bool { return r.Analytic == r.Dynamic }

// CascadeStat is one case study in the tiered-advisor accounting: how
// many candidates the analytic tier removed, how many were simulated,
// and whether the cascade reached the same recommendation as the
// simulation-only sweep over the same pad grid.
type CascadeStat struct {
	App            string
	Candidates     int    // size of the pad grid
	Simulated      int    // candidates the cascade actually simulated
	PrunedAnalytic int    // removed by tier 0
	TieredPad      uint64 // cascade recommendation
	FullPad        uint64 // simulation-only recommendation
}

// Match reports whether the cascade reproduced the full-sweep pick.
func (s CascadeStat) Match() bool { return s.TieredPad == s.FullPad }

// AnalyticResult is the confusion matrix of the closed-form model over
// the case-study variants (and, at Full scale, the Rodinia suite),
// plus the per-case-study cascade accounting.
type AnalyticResult struct {
	Rows []AnalyticRow
	// Confusion counts, with "conflict" as the positive class.
	TP, TN, FP, FN int
	// MaxCFDelta is the largest |analytic − staticconf| predicted-CF
	// gap observed across the rows: how far the closed-form arithmetic
	// strays from the enumerating analyzer it replaces.
	MaxCFDelta float64
	Cascade    []CascadeStat
}

// Agreement returns the fraction of rows where the analytic and
// dynamic verdicts agree.
func (r *AnalyticResult) Agreement() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	return float64(r.TP+r.TN) / float64(len(r.Rows))
}

// Disagreements lists the apps where the analytic verdict is wrong.
func (r *AnalyticResult) Disagreements() []string {
	var out []string
	for _, row := range r.Rows {
		if !row.Agree() {
			out = append(out, row.App)
		}
	}
	return out
}

// CascadeMatches counts case studies where the tiered advisor
// reproduced the simulation-only recommendation.
func (r *AnalyticResult) CascadeMatches() int {
	n := 0
	for _, s := range r.Cascade {
		if s.Match() {
			n++
		}
	}
	return n
}

// Analytic cross-validates the closed-form tier-0 conflict model: every
// case-study variant (both builds) is classified arithmetically from its
// access spec — no reference replayed, no window enumerated — and the
// verdict is scored against the enumerating analyzer and the exact
// classifying simulation, as a confusion matrix. At Full scale the
// conflict-free Rodinia mimics join the table. A second table accounts
// for the analytic → simulation advisor cascade on each case study:
// candidates the analytic tier pruned versus the simulation-only sweep,
// and whether both reach the same pad.
func Analytic(w io.Writer, scale Scale) (*AnalyticResult, error) {
	g := mem.L1Default()
	type variant struct {
		app  string
		prog *workloads.Program
	}
	var variants []variant
	studies := caseStudies(scale)
	for _, cs := range studies {
		variants = append(variants,
			variant{cs.Name + "/orig", cs.Original},
			variant{cs.Name + "/opt", cs.Optimized})
	}
	if scale == Full {
		// RodiniaSuite[0] is NW, already covered by its case study.
		for _, p := range workloads.RodiniaSuite()[1:] {
			variants = append(variants, variant{p.Name, p})
		}
	}

	// Each row is an independent (model, analyze, simulate) triple, so
	// the variants fan out across the sweep executor; rows come back in
	// variant order and the confusion counts are tallied serially
	// afterwards, keeping the matrix identical at any worker count.
	rows, err := parsim.Run(len(variants), parsim.Options{}, func(i int) (AnalyticRow, error) {
		v := variants[i]
		if v.prog.Spec == nil {
			return AnalyticRow{}, fmt.Errorf("analytic: %s declares no access spec", v.app)
		}
		done := obs.Default.StartPhase("analytic/model")
		ar, err := analytic.Analyze(v.prog.Spec, g, analytic.Options{})
		done()
		if err != nil {
			return AnalyticRow{}, fmt.Errorf("analytic: %s: %w", v.app, err)
		}
		sr, err := staticconf.Analyze(v.prog.Spec, g, staticconf.Options{})
		if err != nil {
			return AnalyticRow{}, fmt.Errorf("analytic: %s: staticconf: %w", v.app, err)
		}

		sink := &classifySink{g: g, cl: cache.NewClassifier(g), tr: rcd.New(g.Sets)}
		done = obs.Default.StartPhase("classify")
		v.prog.Run(sink)
		done()
		ratio := sink.cl.ConflictRatio()
		exactCF := sink.tr.ContributionFactor(rcd.DefaultThreshold)

		return AnalyticRow{
			App:        v.app,
			Analytic:   ar.Conflict,
			Static:     sr.Conflict,
			Dynamic:    ratio >= dynConflictRatioMin || exactCF >= dynExactCFMin,
			AnalyticCF: ar.PredictedCF,
			StaticCF:   sr.PredictedCF,
			ExactCF:    exactCF,
			Exact:      ar.Exact,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &AnalyticResult{Rows: rows}
	for _, row := range rows {
		switch {
		case row.Analytic && row.Dynamic:
			res.TP++
		case !row.Analytic && !row.Dynamic:
			res.TN++
		case row.Analytic && !row.Dynamic:
			res.FP++
		default:
			res.FN++
		}
		if d := math.Abs(row.AnalyticCF - row.StaticCF); d > res.MaxCFDelta {
			res.MaxCFDelta = d
		}
	}

	// Cascade accounting: tiered versus simulation-only advisor over the
	// same default pad grid, per case study.
	for _, cs := range studies {
		full, err := advisor.RecommendPad(cs.PadBuilder, advisor.Options{})
		if err != nil {
			return nil, fmt.Errorf("analytic: %s: full sweep: %w", cs.Name, err)
		}
		tiered, err := advisor.RecommendPad(cs.PadBuilder, advisor.Options{
			Tiers: advisor.Cascade(),
			Spec:  cs.SpecBuilder(),
		})
		if err != nil {
			return nil, fmt.Errorf("analytic: %s: cascade: %w", cs.Name, err)
		}
		res.Cascade = append(res.Cascade, CascadeStat{
			App:            cs.Name,
			Candidates:     len(full.Candidates),
			Simulated:      len(tiered.Candidates),
			PrunedAnalytic: len(tiered.PrunedAnalytic),
			TieredPad:      tiered.Best.Pad,
			FullPad:        full.Best.Pad,
		})
	}

	if w != nil {
		t := report.NewTable("closed-form analytic model vs enumeration vs exact simulation",
			"variant", "analytic", "static", "dynamic", "t0 cf", "t1 cf", "exact cf", "exact", "agree")
		for _, row := range res.Rows {
			t.Row(row.App, verdictString(row.Analytic), verdictString(row.Static),
				verdictString(row.Dynamic), report.Pct(row.AnalyticCF),
				report.Pct(row.StaticCF), report.Pct(row.ExactCF),
				exactMark(row.Exact), agreeString(row.Agree()))
		}
		if err := t.Write(w); err != nil {
			return res, err
		}
		fprintf(w, "\nconfusion matrix (positive = conflict): TP=%d TN=%d FP=%d FN=%d — agreement %.0f%% (%d/%d)\n",
			res.TP, res.TN, res.FP, res.FN, 100*res.Agreement(), res.TP+res.TN, len(res.Rows))
		if dis := res.Disagreements(); len(dis) > 0 {
			fprintf(w, "disagreements: %v\n", dis)
		} else {
			fprintf(w, "disagreements: none\n")
		}
		fprintf(w, "max |analytic − static| predicted cf: %.2f\n", res.MaxCFDelta)

		ct := report.NewTable("analytic → simulation advisor cascade vs simulation-only sweep",
			"app", "grid", "simulated", "t0 pruned", "tiered pad", "full pad", "match")
		for _, s := range res.Cascade {
			ct.Row(s.App, s.Candidates, s.Simulated, s.PrunedAnalytic,
				s.TieredPad, s.FullPad, agreeString(s.Match()))
		}
		fprintf(w, "\n")
		if err := ct.Write(w); err != nil {
			return res, err
		}
		fprintf(w, "\ncascade matched the full sweep on %d/%d case studies\n",
			res.CascadeMatches(), len(res.Cascade))
	}
	return res, nil
}

func exactMark(exact bool) string {
	if exact {
		return "exact"
	}
	return "bound"
}
