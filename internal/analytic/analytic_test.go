package analytic_test

import (
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/mem"
	"repro/internal/staticconf"
	"repro/internal/workloads"
)

// TestCaseStudyVerdictsMatchStaticconf pins the closed-form model to the
// enumerating analyzer, its measured reference. On every case-study
// variant both consume the same hand-written specs and their conflict
// verdicts must agree — the analytic experiment then validates both
// against exact simulation. Over every registered case study's padded
// layouts (pads 0–1024 in 8-byte steps) the model must flag every pad
// the enumeration flags: that is why the advisor cascade and conflint
// need no enumerating tier after the analytic one.
func TestCaseStudyVerdictsMatchStaticconf(t *testing.T) {
	g := mem.L1Default()
	for _, cs := range []*workloads.CaseStudy{
		workloads.NewNW(512, 16),
		workloads.NewFFT(128),
		workloads.NewADI(256, 1),
		workloads.NewTinyDNN(128, 1024, 1),
		workloads.NewKripke(64, 32, 32),
		workloads.NewHimeno(16, 16, 64, 1),
	} {
		for _, v := range []struct {
			name string
			prog *workloads.Program
		}{{cs.Name + "/orig", cs.Original}, {cs.Name + "/opt", cs.Optimized}} {
			if v.prog.Spec == nil {
				t.Fatalf("%s: no spec", v.name)
			}
			sr, err := staticconf.Analyze(v.prog.Spec, g, staticconf.Options{})
			if err != nil {
				t.Fatalf("%s: staticconf: %v", v.name, err)
			}
			ar, err := analytic.Analyze(v.prog.Spec, g, analytic.Options{})
			if err != nil {
				t.Fatalf("%s: analytic: %v", v.name, err)
			}
			if ar.Conflict != sr.Conflict {
				t.Errorf("%s: analytic verdict %v (%s) != staticconf %v (%s)",
					v.name, ar.Conflict, ar.Reason, sr.Conflict, sr.Reason)
			}
			t.Logf("%s: conflict=%v cf=%.2f exact=%v (staticconf cf=%.2f) demand max %d vs %d",
				v.name, ar.Conflict, ar.PredictedCF, ar.Exact, sr.PredictedCF,
				ar.MaxDemand, sr.MaxDemand)
		}
	}

	// The padded layouts need not agree both ways: NW at pad 816 is
	// conflicted under the model (CF 0.28) and clean under the
	// enumeration (CF 0.14). Only a pad the enumeration alone flags would
	// make it prune something the model keeps.
	specs, extra := 0, 0
	for _, name := range workloads.Names() {
		cs, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		build := cs.SpecBuilder()
		if build == nil {
			t.Fatalf("%s: no spec builder", name)
		}
		for pad := uint64(0); pad <= 1024; pad += 8 {
			sp := build(pad)
			sr, err := staticconf.Analyze(sp, g, staticconf.Options{})
			if err != nil {
				t.Fatalf("%s pad %d: staticconf: %v", name, pad, err)
			}
			ar, err := analytic.Analyze(sp, g, analytic.Options{})
			if err != nil {
				t.Fatalf("%s pad %d: analytic: %v", name, pad, err)
			}
			specs++
			if sr.Conflict && !ar.Conflict {
				t.Errorf("%s pad %d: staticconf predicts a conflict (%s) the analytic model calls clean (%s)",
					name, pad, sr.Reason, ar.Reason)
			}
			if ar.Conflict && !sr.Conflict {
				extra++
			}
		}
	}
	t.Logf("%d padded specs; the model alone flags %d", specs, extra)
}

func TestAnalyzeRejectsInvalidSpec(t *testing.T) {
	if _, err := analytic.Analyze(nil, mem.L1Default(), analytic.Options{}); err == nil {
		t.Fatal("nil spec accepted")
	}
	sp := &staticconf.Spec{Kernel: "k", Accesses: []staticconf.Access{{Array: "a", Elem: 0}}}
	if _, err := analytic.Analyze(sp, mem.L1Default(), analytic.Options{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestColumnWalkConflict: the canonical §2 pathology — a power-of-two
// column walk — must come back as an exact conflict with concentrated
// set pressure, and padding the row stride must clear it.
func TestColumnWalkConflict(t *testing.T) {
	g := mem.L1Default()
	colSpec := func(rowStride int64) *staticconf.Spec {
		return &staticconf.Spec{Kernel: "col", Accesses: []staticconf.Access{{
			Array: "m", Loop: "m.c:1", Base: 0x100000, Elem: 8,
			Dims: []staticconf.Dim{{Stride: 8, Trip: 256}, {Stride: rowStride, Trip: 256}},
			// Window = the column walk: every iteration of the outer dim
			// re-walks a full column.
			Window: 1,
		}}}
	}
	rep, err := analytic.Analyze(colSpec(4096), g, analytic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Conflict {
		t.Fatalf("4096-byte column walk not flagged: %s", rep.Reason)
	}
	if !rep.Exact {
		t.Fatalf("hierarchical column walk should be exact")
	}
	// 256 rows stride 4096 over span 4096: every line lands on one set.
	if rep.MaxDemand != 256 {
		t.Fatalf("max demand %d, want 256", rep.MaxDemand)
	}
	rep, err = analytic.Analyze(colSpec(4096+64), g, analytic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Conflict {
		t.Fatalf("padded column walk still flagged: %s", rep.Reason)
	}
}

// TestNegativeStrideReflection: a backwards walk touches the same
// addresses as the forward walk, so all counts must match.
func TestNegativeStrideReflection(t *testing.T) {
	g := mem.MustGeometry(16, 8, 2)
	fwd := &staticconf.Spec{Kernel: "f", Accesses: []staticconf.Access{{
		Array: "a", Loop: "l", Base: 0x1000, Elem: 4,
		Dims: []staticconf.Dim{{Stride: 20, Trip: 13}}, Window: 1,
	}}}
	bwd := &staticconf.Spec{Kernel: "b", Accesses: []staticconf.Access{{
		Array: "a", Loop: "l", Base: 0x1000 + 20*12, Elem: 4,
		Dims: []staticconf.Dim{{Stride: -20, Trip: 13}}, Window: 1,
	}}}
	fr, err := analytic.Analyze(fwd, g, analytic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	br, err := analytic.Analyze(bwd, g, analytic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for s := range fr.Demand {
		if fr.Demand[s] != br.Demand[s] || fr.Touches[s] != br.Touches[s] {
			t.Fatalf("set %d: fwd demand/touches %d/%d, bwd %d/%d",
				s, fr.Demand[s], fr.Touches[s], br.Demand[s], br.Touches[s])
		}
	}
	if fr.Accesses[0].FootprintLines != br.Accesses[0].FootprintLines {
		t.Fatalf("footprints differ: %d vs %d",
			fr.Accesses[0].FootprintLines, br.Accesses[0].FootprintLines)
	}
}

func TestWriteText(t *testing.T) {
	rep, err := analytic.Analyze(workloads.NewADI(256, 1).Original.Spec,
		mem.L1Default(), analytic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"analytic conflict model", "verdict:", "predicted CF"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}
}
