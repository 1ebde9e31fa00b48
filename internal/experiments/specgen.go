package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/parsim"
	"repro/internal/rcd"
	"repro/internal/report"
	"repro/internal/specgen"
	"repro/internal/staticconf"
	"repro/internal/workloads"
)

// SpecgenRow is one kernel variant in the extracted-spec confusion matrix:
// the static verdict computed from a spec the source-level extractor
// derived on its own, against the exact-simulation ground truth.
type SpecgenRow struct {
	App           string
	Accesses      int  // accesses in the extracted spec
	Unanalyzable  int  // reference sites the extractor refused to model
	Abstained     bool // extraction produced no spec; static verdict defaults clean
	Static        bool
	Dynamic       bool
	StaticCF      float64
	ExactCF       float64
	ConflictRatio float64
}

// Agree reports whether the static verdict matches the dynamic one.
func (r SpecgenRow) Agree() bool { return r.Static == r.Dynamic }

// SpecgenResult is the confusion matrix of the static analyzer running on
// extracted specs. The wall time of the extraction itself is the
// "extract" phase of the obs snapshot, kept out of the result so it stays
// deterministic.
type SpecgenResult struct {
	Rows           []SpecgenRow
	TP, TN, FP, FN int
}

// Agreement returns the fraction of rows where static and dynamic agree.
func (r *SpecgenResult) Agreement() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	return float64(r.TP+r.TN) / float64(len(r.Rows))
}

// Disagreements lists the apps where the static verdict is wrong.
func (r *SpecgenResult) Disagreements() []string {
	var out []string
	for _, row := range r.Rows {
		if !row.Agree() {
			out = append(out, row.App)
		}
	}
	return out
}

// specgenCaseCtors mirrors caseStudies(scale) constructor-for-constructor;
// the extractor runs the same constructors at the same arguments, so row i
// of both lists describes the same kernel build.
func specgenCaseCtors(s Scale) []struct {
	ctor string
	args []int
} {
	type c = struct {
		ctor string
		args []int
	}
	if s == Quick {
		return []c{
			{"NewNW", []int{512, 16}},
			{"NewFFT", []int{128}},
			{"NewADI", []int{256, 1}},
			{"NewTinyDNN", []int{128, 1024, 1}},
			{"NewKripke", []int{64, 32, 32}},
			{"NewHimeno", []int{16, 16, 64, 1}},
		}
	}
	return []c{
		{"NewNW", []int{1024, 16}},
		{"NewFFT", []int{256}},
		{"NewADI", []int{512, 2}},
		{"NewTinyDNN", []int{256, 1024, 4}},
		{"NewKripke", []int{128, 64, 32}},
		{"NewHimeno", []int{32, 32, 64, 2}},
	}
}

// rodiniaCtorNames lists the niladic Rodinia constructors joined at Full
// scale (RodiniaSuite[0] is NW, covered by its case study).
var rodiniaCtorNames = []string{
	"Backprop", "BFS", "BTree", "CFD", "Heartwall", "Hotspot",
	"Hotspot3D", "Kmeans", "LavaMD", "Leukocyte", "LUD", "Myocyte",
	"NN", "ParticleFilter", "Pathfinder", "SRAD", "Streamcluster",
}

// Specgen is the end-to-end validation of source-level spec extraction:
// every case-study variant's spec is derived from the workload source by
// internal/specgen — no hand-written spec is consulted — analyzed by the
// static conflict analyzer, and compared against exact simulation, exactly
// like the staticconf experiment. Matching that experiment's confusion
// matrix shows the extractor is a drop-in replacement for hand specs. At
// Full scale the Rodinia mimics join; data-dependent kernels whose
// extraction abstains default to a clean static verdict (the analyzer has
// nothing to analyze), which is correct for every kernel in the suite.
func Specgen(w io.Writer, scale Scale) (*SpecgenResult, error) {
	g := mem.L1Default()
	dir, err := specgen.WorkloadsDir()
	if err != nil {
		return nil, err
	}
	pkg, err := specgen.Load(dir)
	if err != nil {
		return nil, err
	}

	type variant struct {
		app  string
		prog *workloads.Program
		ex   *specgen.Extraction
	}
	var variants []variant

	// Phase 1: serial, timed extraction of every spec from source.
	start := time.Now()
	hand := caseStudies(scale)
	for i, c := range specgenCaseCtors(scale) {
		cse, err := pkg.ExtractCaseStudy(g, c.ctor, c.args...)
		if err != nil {
			return nil, fmt.Errorf("specgen: %s: %w", c.ctor, err)
		}
		variants = append(variants,
			variant{hand[i].Name + "/orig", hand[i].Original, cse.Original},
			variant{hand[i].Name + "/opt", hand[i].Optimized, cse.Optimized})
	}
	if scale == Full {
		byName := map[string]*workloads.Program{}
		for _, p := range workloads.RodiniaSuite() {
			byName[p.Name] = p
		}
		for _, ctor := range rodiniaCtorNames {
			ex, err := pkg.ExtractProgram(g, ctor)
			if err != nil {
				return nil, fmt.Errorf("specgen: %s: %w", ctor, err)
			}
			prog := byName[ex.Kernel]
			if prog == nil {
				return nil, fmt.Errorf("specgen: extraction of %s yielded unknown kernel %q", ctor, ex.Kernel)
			}
			variants = append(variants, variant{prog.Name, prog, ex})
		}
	}
	obs.Default.ObservePhase("extract", time.Since(start))

	// Phase 2: static verdicts from the extracted specs, dynamic ground
	// truth from exact simulation, fanned out across the sweep executor.
	rows, err := parsim.Run(len(variants), parsim.Options{}, func(i int) (SpecgenRow, error) {
		v := variants[i]
		row := SpecgenRow{App: v.app, Unanalyzable: len(v.ex.Unanalyzable)}
		if v.ex.Spec != nil {
			row.Accesses = len(v.ex.Spec.Accesses)
			sr, err := staticconf.Analyze(v.ex.Spec, g, staticconf.Options{})
			if err != nil {
				return SpecgenRow{}, fmt.Errorf("specgen: %s: %w", v.app, err)
			}
			row.Static = sr.Conflict
			row.StaticCF = sr.PredictedCF
		} else {
			row.Abstained = true
		}

		sink := &classifySink{g: g, cl: cache.NewClassifier(g), tr: rcd.New(g.Sets)}
		done := obs.Default.StartPhase("classify")
		v.prog.Run(sink)
		done()
		row.ConflictRatio = sink.cl.ConflictRatio()
		row.ExactCF = sink.tr.ContributionFactor(rcd.DefaultThreshold)
		row.Dynamic = row.ConflictRatio >= dynConflictRatioMin || row.ExactCF >= dynExactCFMin
		return row, nil
	})
	if err != nil {
		return nil, err
	}

	res := &SpecgenResult{Rows: rows}
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
		t := report.NewTable("extracted specs vs exact simulation",
			"variant", "accesses", "opaque sites", "static", "dynamic", "pred cf", "exact cf", "agree")
		for _, row := range res.Rows {
			static := verdictString(row.Static)
			if row.Abstained {
				static = "abstain"
			}
			t.Row(row.App, fmt.Sprint(row.Accesses), fmt.Sprint(row.Unanalyzable),
				static, verdictString(row.Dynamic),
				report.Pct(row.StaticCF), report.Pct(row.ExactCF), agreeString(row.Agree()))
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
		// No wall-clock in the report: extraction time lives in the obs
		// snapshot ("extract" phase), keeping this stream byte-stable.
		fprintf(w, "spec extraction: %d variants from source alone (no hand-written input)\n",
			len(res.Rows))
	}
	return res, nil
}
