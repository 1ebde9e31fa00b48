package advisor

import (
	"testing"

	"repro/internal/workloads"
)

// caseStudyFixes pairs each paper case study (at quick scale) with its fix
// family: the pad sizes that break the conflicting alignment the way the
// paper's hand fix does (§6 pads one element row, one cache line, or a few
// lines; Kripke's real fix is a loop interchange, so any alignment-breaking
// pad is acceptable there).
func caseStudyFixes() []struct {
	cs     *workloads.CaseStudy
	family []uint64 // nil = any non-zero pad
} {
	return []struct {
		cs     *workloads.CaseStudy
		family []uint64
	}{
		{workloads.NewNW(512, 16), []uint64{16, 32, 64, 96, 128}},
		{workloads.NewFFT(128), []uint64{8, 16, 32, 64, 128}},
		{workloads.NewADI(256, 1), []uint64{8, 16, 32, 64}},
		{workloads.NewTinyDNN(128, 1024, 1), []uint64{8, 16, 32, 64}},
		{workloads.NewKripke(64, 32, 32), nil},
		{workloads.NewHimeno(16, 16, 64, 1), []uint64{8, 16, 32, 64}},
	}
}

// TestAdvisorFixesAllCaseStudies sweeps the full candidate list for every
// case study: each original layout must be improvable, and the recommended
// pad must land in the paper's fix family.
func TestAdvisorFixesAllCaseStudies(t *testing.T) {
	for _, c := range caseStudyFixes() {
		res, err := RecommendPad(c.cs.PadBuilder, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.cs.Name, err)
		}
		if res.Best.Pad == 0 {
			t.Errorf("%s: advisor kept the conflicting pad-0 layout", c.cs.Name)
			continue
		}
		if res.Improvement() <= 0 {
			t.Errorf("%s: improvement %.3f, want > 0", c.cs.Name, res.Improvement())
		}
		if res.Best.CF >= res.Baseline.CF {
			t.Errorf("%s: cf did not drop: %.3f -> %.3f",
				c.cs.Name, res.Baseline.CF, res.Best.CF)
		}
		if c.family != nil && !containsPad(c.family, res.Best.Pad) {
			t.Errorf("%s: recommended pad %d outside the paper's fix family %v",
				c.cs.Name, res.Best.Pad, c.family)
		}
	}
}

// TestStaticFirstMatchesFullSweep pins the analytic pruning contract on
// all six case studies at the default pads: same recommendation as the
// full sweep, from strictly fewer cache simulations.
func TestStaticFirstMatchesFullSweep(t *testing.T) {
	for _, c := range caseStudyFixes() {
		full, err := RecommendPad(c.cs.PadBuilder, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.cs.Name, err)
		}
		sb := c.cs.SpecBuilder()
		if sb == nil {
			t.Fatalf("%s: case study has no spec builder", c.cs.Name)
		}
		sf, err := RecommendPad(c.cs.PadBuilder, Options{Tiers: Cascade(), Spec: sb})
		if err != nil {
			t.Fatalf("%s: %v", c.cs.Name, err)
		}
		if sf.Best.Pad != full.Best.Pad {
			t.Errorf("%s: cascade recommended pad %d, full sweep %d",
				c.cs.Name, sf.Best.Pad, full.Best.Pad)
		}
		if len(sf.Candidates) >= len(full.Candidates) {
			t.Errorf("%s: cascade simulated %d candidates, full sweep %d — pruning bought nothing",
				c.cs.Name, len(sf.Candidates), len(full.Candidates))
		}
		if len(sf.Pruned)+len(sf.Candidates) != len(full.Candidates) {
			t.Errorf("%s: pruned %d + simulated %d != %d candidates",
				c.cs.Name, len(sf.Pruned), len(sf.Candidates), len(full.Candidates))
		}
	}
}

// TestStaticFirstWithoutSpecFallsBack ensures the cascade without a spec
// builder degrades to the full sweep instead of failing.
func TestStaticFirstWithoutSpecFallsBack(t *testing.T) {
	res, err := RecommendPad(columnWalk(512), Options{Tiers: Cascade()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pruned) != 0 {
		t.Errorf("pruned %v with no spec available", res.Pruned)
	}
	if res.Best.Pad == 0 {
		t.Error("fallback sweep missed the column-walk conflict")
	}
}

func containsPad(pads []uint64, pad uint64) bool {
	for _, p := range pads {
		if p == pad {
			return true
		}
	}
	return false
}
