package experiments

import (
	"strings"
	"testing"

	"repro/internal/mem"
)

// The experiment tests run at Quick scale and assert the *shapes* the paper
// reports — who conflicts, what padding does, how accuracy trades against
// the sampling period — not absolute numbers.

func TestFig2Shape(t *testing.T) {
	run := sharedRun(t, "fig2", 0)
	res := run.rows.(Fig2Result)
	if res.L2ReductionPct < 50 {
		t.Errorf("L2 reduction = %.1f%%, want > 50%% (paper: up to 91.4%%)", res.L2ReductionPct)
	}
	if res.L1MissesPad >= res.L1MissesOrig {
		t.Errorf("padding did not cut L1 misses: %d -> %d", res.L1MissesOrig, res.L1MissesPad)
	}
	if !strings.Contains(string(run.text), "Figure 2") {
		t.Error("report missing title")
	}
}

func TestFig7Shape(t *testing.T) {
	rows := sharedRows[[]Fig7Row](t, "fig7")
	if len(rows) != 18 {
		t.Fatalf("got %d rows, want 18", len(rows))
	}
	byApp := map[string]Fig7Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	nw, ok := byApp["nw"]
	if !ok {
		t.Fatal("nw missing")
	}
	// The paper's claim: NW stands out with a large short-RCD share;
	// the other applications sit in the 10-20% band.
	for app, r := range byApp {
		if app == "nw" || r.CF == 0 {
			continue
		}
		if r.CF >= nw.CF {
			t.Errorf("%s cf %.2f >= nw cf %.2f; nw should dominate", app, r.CF, nw.CF)
		}
		if r.CF > 0.25 {
			t.Errorf("%s cf %.2f, want <= 0.25 (paper: 10-20%%)", app, r.CF)
		}
	}
	if nw.CF < 0.3 {
		t.Errorf("nw cf = %.2f, want >= 0.3 (paper: ~88%%)", nw.CF)
	}
}

func TestFig8Shape(t *testing.T) {
	pts, err := Fig8(nil, Quick, []uint64{63, 1212, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	// Accuracy decays and overhead shrinks as the period grows.
	if pts[0].F1 < pts[2].F1 {
		t.Errorf("F1 should not improve with sparser sampling: %.2f@%d vs %.2f@%d",
			pts[0].F1, pts[0].Period, pts[2].F1, pts[2].Period)
	}
	if pts[0].F1 < 0.85 {
		t.Errorf("F1 at period 63 = %.2f, want high (paper: 1.0 in the fast regime)", pts[0].F1)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Overhead > pts[i-1].Overhead {
			t.Errorf("overhead must shrink with the period: %+v", pts)
		}
	}
	if pts[0].Overhead <= pts[2].Overhead {
		t.Error("fast sampling should cost more than sparse sampling")
	}
}

func TestFig9Shape(t *testing.T) {
	rows := sharedRows[[]Fig9Row](t, "fig9")
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6 case studies", len(rows))
	}
	for _, r := range rows {
		if r.CFOrig < 0.2 {
			t.Errorf("%s: original cf %.2f too low to be a conflict case", r.App, r.CFOrig)
		}
		if r.CFOpt >= r.CFOrig/2 {
			t.Errorf("%s: optimization did not collapse cf: %.2f -> %.2f", r.App, r.CFOrig, r.CFOpt)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows := sharedRows[[]Table2Row](t, "table2")
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.LoopContribution <= 0 {
			t.Errorf("%s: target loop %s got no samples", r.App, r.TargetLoop)
		}
		if r.SimOverheadLoop <= r.CCProfOverhead {
			t.Errorf("%s: simulation overhead (%.1fx) must dwarf CCProf's (%.1fx)",
				r.App, r.SimOverheadLoop, r.CCProfOverhead)
		}
		if r.ActiveInnerLoops < 1 {
			t.Errorf("%s: no active inner loops", r.App)
		}
		if r.MeasuredOverhead <= 0 {
			t.Errorf("%s: no measured wall-clock overhead", r.App)
		}
	}
	// HimenoBMT needs high-frequency sampling and hence pays far more
	// than the rest (paper: 27x vs ~1.3x).
	var himeno, others float64
	for _, r := range rows {
		if r.App == "HimenoBMT" {
			himeno = r.CCProfOverhead
		} else if r.CCProfOverhead > others {
			others = r.CCProfOverhead
		}
	}
	if himeno < 2*others {
		t.Errorf("HimenoBMT overhead %.1fx should dominate others' max %.1fx", himeno, others)
	}
}

func TestTable3Shape(t *testing.T) {
	rows := sharedRows[[]Table3Row](t, "table3")
	if len(rows) != 12 {
		t.Fatalf("got %d rows, want 6 apps x 2 machines", len(rows))
	}
	for _, r := range rows {
		if r.Speedup < 0.95 {
			t.Errorf("%s on %s: optimization slowed down: %.2fx", r.App, r.Machine, r.Speedup)
		}
	}
	// The headline claims: every case study gains somewhere, and the
	// majority of speedups are nontrivial (> 1.05x).
	nontrivial := 0
	for _, r := range rows {
		if r.Speedup > 1.05 {
			nontrivial++
		}
	}
	if nontrivial < 8 {
		t.Errorf("only %d/12 cells show nontrivial speedup", nontrivial)
	}
}

func TestTable4Shape(t *testing.T) {
	rows := sharedRows[[]Table4Row](t, "table4")
	if len(rows) < 8 {
		t.Fatalf("got %d loops, want the full NW loop set", len(rows))
	}
	// Sorted by contribution; top loops use many sets, bottom loops few
	// (Table 4's gradient).
	for i := 1; i < len(rows); i++ {
		if rows[i].Contribution > rows[i-1].Contribution+1e-9 {
			t.Error("rows not sorted by contribution")
		}
	}
	if rows[0].SetsUsed < 30 {
		t.Errorf("top loop uses only %d sets", rows[0].SetsUsed)
	}
	last := rows[len(rows)-1]
	if last.SetsUsed > 16 {
		t.Errorf("bottom loop uses %d sets, want few", last.SetsUsed)
	}
	// The tile-copy loops must be flagged as conflicting.
	flagged := 0
	for _, r := range rows {
		if r.Conflict {
			flagged++
		}
	}
	if flagged == 0 {
		t.Error("no NW loop flagged as conflicting")
	}
}

func TestAblationThresholdShape(t *testing.T) {
	rows, err := AblationThreshold(nil, Quick, []int{4, 8, 32})
	if err != nil {
		t.Fatal(err)
	}
	byT := map[int]ThresholdRow{}
	for _, r := range rows {
		byT[r.T] = r
	}
	// T=8 (the paper's choice) must separate; T=32 must be worse than 8.
	if byT[8].Margin <= 0 {
		t.Errorf("T=8 does not separate: %+v", byT[8])
	}
	if byT[32].Margin >= byT[8].Margin {
		t.Errorf("T=32 margin %.2f should be below T=8 margin %.2f", byT[32].Margin, byT[8].Margin)
	}
}

func TestAblationPeriodDistShape(t *testing.T) {
	rows, err := AblationPeriodDist(nil, Quick, 171)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.CFOrig < 0.5 {
			t.Errorf("%s: original ADI cf %.2f too low", r.Dist, r.CFOrig)
		}
		if r.CFOpt > 0.3 {
			t.Errorf("%s: padded ADI cf %.2f too high", r.Dist, r.CFOpt)
		}
	}
}

func TestAblationReplacementShape(t *testing.T) {
	rows := sharedRows[[]ReplacementRow](t, "ablation-replacement")
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.PadBenefit < 0.5 {
			t.Errorf("%s: padding benefit %.2f, want > 0.5 under every policy", r.Policy, r.PadBenefit)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{"fig2", "fig7", "fig8", "fig9", "table2", "table3", "table4"}
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("registry missing %s", w)
		}
	}
}

func TestScaledMachine(t *testing.T) {
	m := ScaledMachine(mustBroadwell(), 16)
	if m.LLC.Size() >= mustBroadwell().LLC.Size() {
		t.Error("scaling did not shrink the LLC")
	}
	if m.L1 != mustBroadwell().L1 {
		t.Error("scaling must not touch L1")
	}
	tiny := ScaledMachine(mustBroadwell(), 1<<20)
	if tiny.LLC.Sets < 64 {
		t.Error("scaling floor violated")
	}
}

func mustBroadwell() mem.Machine { return mem.Broadwell() }

func TestBaselinesShape(t *testing.T) {
	rows := sharedRows[[]BaselineRow](t, "baselines")
	if len(rows) != 4 {
		t.Fatalf("got %d detector rows, want 4", len(rows))
	}
	byName := map[string]BaselineRow{}
	for _, r := range rows {
		byName[r.Detector] = r
	}
	ccprof := byName["CCProf (RCD, sampled)"]
	dprof := byName["DProf-style (histogram, sampled)"]
	mst := byName["MST (hardware, full trace)"]
	if ccprof.F1() < 0.8 {
		t.Errorf("CCProf F1 = %.2f, want >= 0.8", ccprof.F1())
	}
	// The related-work claims: CCProf beats both the uniformity-assuming
	// sampled detector and the depth-1 hardware table, without needing
	// the full trace.
	if dprof.F1() >= ccprof.F1() {
		t.Errorf("DProf F1 %.2f should trail CCProf %.2f", dprof.F1(), ccprof.F1())
	}
	if mst.F1() >= ccprof.F1() {
		t.Errorf("MST F1 %.2f should trail CCProf %.2f", mst.F1(), ccprof.F1())
	}
	if ccprof.FullTrace || dprof.FullTrace {
		t.Error("sampled detectors flagged as full trace")
	}
	if !mst.FullTrace {
		t.Error("MST must be marked full trace")
	}
	// Nobody false-positives on the clean kernels at these thresholds.
	for name, r := range byName {
		if r.FP > 1 {
			t.Errorf("%s has %d false positives", name, r.FP)
		}
	}
}

func TestL2ExtensionShape(t *testing.T) {
	rows := sharedRows[[]L2ExtRow](t, "l2ext")
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 2 variants x 3 policies", len(rows))
	}
	for _, r := range rows {
		switch r.Variant {
		case "original":
			if !r.Conflict {
				t.Errorf("original under %v not flagged (cf=%.2f)", r.Policy, r.CF)
			}
		case "padded":
			if r.Conflict {
				t.Errorf("padded under %v flagged (cf=%.2f)", r.Policy, r.CF)
			}
		}
	}
}

func TestAblationAssociativityShape(t *testing.T) {
	rows := sharedRows[[]AssociativityRow](t, "ablation-associativity")
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Every configuration below the conflict degree (12) thrashes; the
	// 16-way configuration holds the working set.
	for _, r := range rows {
		if r.Ways < 12 && r.MissRatio < 0.9 {
			t.Errorf("%d ways: miss ratio %.2f, want thrash", r.Ways, r.MissRatio)
		}
		if r.Ways >= 16 && r.MissRatio > 0.01 {
			t.Errorf("%d ways: miss ratio %.2f, want ~0", r.Ways, r.MissRatio)
		}
	}
	if rows[len(rows)-1].Misses >= rows[0].Misses {
		t.Error("misses must collapse at high associativity")
	}
}

func TestAblationBurstShape(t *testing.T) {
	rows := sharedRows[[]BurstRow](t, "ablation-burst")
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	single, burst := rows[0], rows[1]
	// The paper's reason for bursty sampling: at equal budget, bursts
	// sharpen both sides of the separation.
	if burst.MeanConflict <= single.MeanConflict {
		t.Errorf("burst conflicted cf %.2f should exceed single %.2f",
			burst.MeanConflict, single.MeanConflict)
	}
	if burst.MeanClean >= single.MeanClean {
		t.Errorf("burst clean cf %.2f should undercut single %.2f",
			burst.MeanClean, single.MeanClean)
	}
	if burst.F1 < single.F1 {
		t.Errorf("burst F1 %.2f should be at least single F1 %.2f", burst.F1, single.F1)
	}
	// Equal budget within 20%.
	ratio := burst.MeanSamples / single.MeanSamples
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("sample budgets differ: %.1f vs %.1f", burst.MeanSamples, single.MeanSamples)
	}
}

func TestStaticConfShape(t *testing.T) {
	run := sharedRun(t, "staticconf", 0)
	res := run.rows.(*StaticConfResult)
	if len(res.Rows) != 12 {
		t.Fatalf("got %d rows, want 12 (six case studies, both variants)", len(res.Rows))
	}
	// The acceptance bar: the static analyzer agrees with the exact
	// simulator on at least 10 of the 12 case-study variants.
	if agree := res.TP + res.TN; agree < 10 {
		t.Errorf("static/dynamic agreement %d/12, want >= 10; disagreements: %v",
			agree, res.Disagreements())
	}
	// Every original must be flagged, every optimized variant cleared,
	// by the dynamic ground truth — otherwise the matrix tests nothing.
	for _, row := range res.Rows {
		if strings.HasSuffix(row.App, "/orig") && !row.Dynamic {
			t.Errorf("%s: dynamic ground truth did not flag the original", row.App)
		}
		if strings.HasSuffix(row.App, "/opt") && row.Dynamic {
			t.Errorf("%s: dynamic ground truth flagged the optimized build", row.App)
		}
	}
	out := string(run.text)
	if !strings.Contains(out, "confusion matrix") {
		t.Error("report missing confusion matrix line")
	}
	if !strings.Contains(out, "disagreements:") {
		t.Error("report missing disagreement list")
	}
}

func TestRegistryHasStaticConf(t *testing.T) {
	if _, ok := Registry()["staticconf"]; !ok {
		t.Error("registry missing staticconf")
	}
}

func TestSpecgenShape(t *testing.T) {
	run := sharedRun(t, "specgen", 0)
	res := run.rows.(*SpecgenResult)
	if len(res.Rows) != 12 {
		t.Fatalf("got %d rows, want 12 (six case studies, both variants)", len(res.Rows))
	}
	// The acceptance bar: verdicts computed from EXTRACTED specs must
	// agree with exact simulation on all 12 case-study variants — the
	// extractor is a drop-in replacement for the hand-written specs.
	if agree := res.TP + res.TN; agree != 12 {
		t.Errorf("static/dynamic agreement %d/12 from extracted specs; disagreements: %v",
			agree, res.Disagreements())
	}
	for _, row := range res.Rows {
		if row.Abstained {
			t.Errorf("%s: extraction abstained on a fully affine case study", row.App)
		}
		if row.Accesses == 0 {
			t.Errorf("%s: empty extracted spec", row.App)
		}
	}
	if run.phases["extract"].TotalNs <= 0 {
		t.Error("extraction time not measured: no obs \"extract\" phase")
	}
	out := string(run.text)
	if !strings.Contains(out, "confusion matrix") || !strings.Contains(out, "spec extraction") {
		t.Errorf("report missing sections:\n%s", out)
	}
}
