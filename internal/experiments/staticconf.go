package experiments

import (
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/parsim"
	"repro/internal/rcd"
	"repro/internal/report"
	"repro/internal/staticconf"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// classifySink feeds the exact 3C classifier and the RCD tracker from a
// reference stream, one block of addresses at a time.
type classifySink struct {
	g  mem.Geometry
	cl *cache.Classifier
	tr *rcd.Tracker
}

// RefBlock implements trace.Sink.
func (s *classifySink) RefBlock(b *trace.RefBlock) {
	for _, addr := range b.Addr {
		if s.cl.Access(addr) != cache.Hit {
			s.tr.Observe(s.g.Set(addr))
		}
	}
}

// StaticConfRow is one kernel variant in the static-vs-dynamic comparison:
// the analyzer's compile-time verdict against the exact-simulation ground
// truth.
type StaticConfRow struct {
	App           string
	Static        bool    // static analyzer: conflict predicted
	Dynamic       bool    // exact simulation: conflict observed
	StaticCF      float64 // predicted short-RCD contribution factor
	ExactCF       float64 // exact cf from the full reference stream
	ConflictRatio float64 // 3C conflict-miss share of all misses
}

// Agree reports whether the static verdict matches the dynamic one.
func (r StaticConfRow) Agree() bool { return r.Static == r.Dynamic }

// StaticConfResult is the confusion matrix of the static analyzer over the
// case-study variants (and, at Full scale, the Rodinia suite).
type StaticConfResult struct {
	Rows []StaticConfRow
	// Confusion counts, with "conflict" as the positive class.
	TP, TN, FP, FN int
}

// Agreement returns the fraction of rows where static and dynamic agree.
func (r *StaticConfResult) Agreement() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	return float64(r.TP+r.TN) / float64(len(r.Rows))
}

// Disagreements lists the apps where the static verdict is wrong.
func (r *StaticConfResult) Disagreements() []string {
	var out []string
	for _, row := range r.Rows {
		if !row.Agree() {
			out = append(out, row.App)
		}
	}
	return out
}

// Dynamic ground-truth rule: a run counts as conflicted when the 3C
// classifier attributes a substantial share of misses to conflicts, or
// when the exact short-RCD contribution factor is overwhelming (ADI-style
// cases convert conflict misses into capacity misses under the 3C rule
// while the RCD signature stays hot). The cf cut sits between the largest
// clean value observed across the suite (ADI optimized, ~0.67) and the
// smallest conflicted one (NW original, ~0.78).
const (
	dynConflictRatioMin = 0.2
	dynExactCFMin       = 0.7
)

// StaticConf cross-validates the static affine analyzer against exact
// simulation: every case-study variant (both builds) is analyzed from its
// access spec alone and replayed through the classifying L1 simulator, and
// the two verdicts are tabulated as a confusion matrix. At Full scale the
// 17 conflict-free Rodinia mimics join the table.
func StaticConf(w io.Writer, scale Scale) (*StaticConfResult, error) {
	g := mem.L1Default()
	type variant struct {
		app  string
		prog *workloads.Program
	}
	var variants []variant
	for _, cs := range caseStudies(scale) {
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

	// Every confusion-matrix entry is an independent (analyze, simulate)
	// pair, so the variants fan out across the sweep executor; rows come
	// back in variant order and the confusion counts are tallied serially
	// afterwards, keeping the matrix identical at any worker count.
	rows, err := parsim.Run(len(variants), parsim.Options{}, func(i int) (StaticConfRow, error) {
		v := variants[i]
		if v.prog.Spec == nil {
			return StaticConfRow{}, fmt.Errorf("staticconf: %s declares no access spec", v.app)
		}
		sr, err := staticconf.Analyze(v.prog.Spec, g, staticconf.Options{})
		if err != nil {
			return StaticConfRow{}, fmt.Errorf("staticconf: %s: %w", v.app, err)
		}

		sink := &classifySink{g: g, cl: cache.NewClassifier(g), tr: rcd.New(g.Sets)}
		done := obs.Default.StartPhase("classify")
		v.prog.Run(sink)
		done()
		ratio := sink.cl.ConflictRatio()
		exactCF := sink.tr.ContributionFactor(rcd.DefaultThreshold)

		return StaticConfRow{
			App:           v.app,
			Static:        sr.Conflict,
			Dynamic:       ratio >= dynConflictRatioMin || exactCF >= dynExactCFMin,
			StaticCF:      sr.PredictedCF,
			ExactCF:       exactCF,
			ConflictRatio: ratio,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	res := &StaticConfResult{Rows: rows}
	for _, row := range rows {
		switch {
		case row.Static && row.Dynamic:
			res.TP++
		case !row.Static && !row.Dynamic:
			res.TN++
		case row.Static && !row.Dynamic:
			res.FP++
		default:
			res.FN++
		}
	}

	if w != nil {
		t := report.NewTable("static affine analysis vs exact simulation",
			"variant", "static", "dynamic", "pred cf", "exact cf", "conflict ratio", "agree")
		for _, row := range res.Rows {
			t.Row(row.App, verdictString(row.Static), verdictString(row.Dynamic),
				report.Pct(row.StaticCF), report.Pct(row.ExactCF),
				report.Pct(row.ConflictRatio), agreeString(row.Agree()))
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
	}
	return res, nil
}

func verdictString(conflict bool) string {
	if conflict {
		return "CONFLICT"
	}
	return "clean"
}

func agreeString(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
