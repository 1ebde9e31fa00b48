package experiments

import "testing"

// TestAnalyticGates pins the tier-0 model's accuracy contract at Quick
// scale: the closed-form verdict must agree with the exact-simulation
// ground truth on at least 11 of the 12 case-study variants, its
// predicted CF must track the enumerating analyzer within 0.10, and the
// tiered advisor must reproduce every simulation-only recommendation.
func TestAnalyticGates(t *testing.T) {
	res := sharedRows[*AnalyticResult](t, "analytic")
	if got := len(res.Rows); got != 12 {
		t.Fatalf("expected 12 case-study variants, got %d", got)
	}
	if agreed := res.TP + res.TN; agreed < 11 {
		t.Errorf("analytic verdict agrees with simulation on %d/12 variants, want ≥ 11 (disagreements: %v)",
			agreed, res.Disagreements())
	}
	if res.MaxCFDelta > 0.10 {
		t.Errorf("max |analytic − static| predicted cf = %.3f, want ≤ 0.10", res.MaxCFDelta)
	}
	for _, s := range res.Cascade {
		if !s.Match() {
			t.Errorf("%s: cascade recommended pad %d, simulation-only %d", s.App, s.TieredPad, s.FullPad)
		}
		if s.Simulated >= s.Candidates {
			t.Errorf("%s: cascade simulated %d of %d candidates, pruned nothing", s.App, s.Simulated, s.Candidates)
		}
	}
}
