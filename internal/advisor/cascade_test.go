package advisor

import (
	"sort"
	"testing"

	"repro/internal/obs"
)

// denseGrid is a pad grid fine enough that pruning matters: 0..640 in
// line-eighth steps, 81 candidates.
func denseGrid() []uint64 {
	var pads []uint64
	for p := uint64(0); p <= 640; p += 8 {
		pads = append(pads, p)
	}
	return pads
}

// TestTierCascadeMatchesFullSweep is the cascade's acceptance contract:
// on every quick-scale case study, the cascade (analytic → simulation)
// returns the same recommendation as simulation-only over a dense
// candidate grid while running at least 90% fewer full simulations.
func TestTierCascadeMatchesFullSweep(t *testing.T) {
	pads := denseGrid()
	for _, c := range caseStudyFixes() {
		full, err := RecommendPad(c.cs.PadBuilder, Options{Pads: pads})
		if err != nil {
			t.Fatalf("%s: %v", c.cs.Name, err)
		}
		tiered, err := RecommendPad(c.cs.PadBuilder, Options{
			Pads:       pads,
			Tiers:      Cascade(),
			Spec:       c.cs.SpecBuilder(),
			StaticKeep: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.cs.Name, err)
		}
		if tiered.Best.Pad != full.Best.Pad {
			t.Errorf("%s: cascade recommended pad %d, simulation-only %d",
				c.cs.Name, tiered.Best.Pad, full.Best.Pad)
		}
		if sims, max := len(tiered.Candidates), len(full.Candidates)/10; sims > max {
			t.Errorf("%s: cascade simulated %d of %d candidates, want ≤ %d (≥90%% pruned)",
				c.cs.Name, sims, len(full.Candidates), max)
		}
		if len(tiered.Pruned)+len(tiered.Candidates) != len(full.Candidates) {
			t.Errorf("%s: pruned %d + simulated %d != %d candidates",
				c.cs.Name, len(tiered.Pruned), len(tiered.Candidates), len(full.Candidates))
		}
		t.Logf("%s: best pad %d; simulated %d/%d (analytic pruned %d, static pruned %d)",
			c.cs.Name, tiered.Best.Pad, len(tiered.Candidates), len(full.Candidates),
			len(tiered.PrunedAnalytic), len(tiered.PrunedStatic))
	}
}

// TestCascadeTierAttribution checks the bookkeeping of a tiered run:
// pruned pads are attributed to the analytic tier when its verdict
// removed them, the pruned list is ascending and disjoint from the
// simulated list, and the obs counters advance by the same amounts.
func TestCascadeTierAttribution(t *testing.T) {
	c := caseStudyFixes()[0] // NW
	beforeAnalytic := obs.Default.Counter("advisor.pruned.analytic").Load()
	beforeSim := obs.Default.Counter("advisor.simulated").Load()
	res, err := RecommendPad(c.cs.PadBuilder, Options{
		Pads:  denseGrid(),
		Tiers: Cascade(),
		Spec:  c.cs.SpecBuilder(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PrunedAnalytic) == 0 {
		t.Error("analytic tier pruned nothing on a dense grid")
	}
	if !sort.SliceIsSorted(res.Pruned, func(i, j int) bool { return res.Pruned[i] < res.Pruned[j] }) {
		t.Errorf("pruned list not ascending: %v", res.Pruned)
	}
	if attributed := len(res.PrunedAnalytic); attributed > len(res.Pruned) {
		t.Errorf("attributed %d pads, but only %d pruned", attributed, len(res.Pruned))
	}
	simulated := map[uint64]bool{}
	for _, cand := range res.Candidates {
		simulated[cand.Pad] = true
	}
	for _, p := range res.Pruned {
		if simulated[p] {
			t.Errorf("pad %d both pruned and simulated", p)
		}
	}
	if got := obs.Default.Counter("advisor.pruned.analytic").Load() - beforeAnalytic; got != uint64(len(res.PrunedAnalytic)) {
		t.Errorf("advisor.pruned.analytic advanced by %d, want %d", got, len(res.PrunedAnalytic))
	}
	if got := obs.Default.Counter("advisor.simulated").Load() - beforeSim; got != uint64(len(res.Candidates)) {
		t.Errorf("advisor.simulated advanced by %d, want %d", got, len(res.Candidates))
	}
}
