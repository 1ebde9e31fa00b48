package rcd

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFirstMissHasNoPrior(t *testing.T) {
	tr := New(4)
	if d := tr.Observe(2); d != NoPrior {
		t.Errorf("first miss RCD = %d, want NoPrior", d)
	}
	if tr.Total() != 1 {
		t.Errorf("Total = %d, want 1", tr.Total())
	}
}

func TestRCDDefinition(t *testing.T) {
	// Figure 5-a style sequence over 4 sets: S1 S2 S3 S1 S1 ...
	tr := New(4)
	tr.Observe(1)
	tr.Observe(2)
	tr.Observe(3)
	if d := tr.Observe(1); d != 3 {
		t.Errorf("RCD after 2 intervening misses = %d, want 3", d)
	}
	if d := tr.Observe(1); d != 1 {
		t.Errorf("back-to-back RCD = %d, want 1", d)
	}
}

// Observation 2: with round-robin misses over all N sets, every defined RCD
// equals N.
func TestObservation2UniformTrafficRCDEqualsSets(t *testing.T) {
	const n = 64
	tr := New(n)
	for round := 0; round < 10; round++ {
		for s := 0; s < n; s++ {
			d := tr.Observe(s)
			if round == 0 {
				if d != NoPrior {
					t.Fatalf("round 0 set %d: RCD = %d, want NoPrior", s, d)
				}
			} else if d != n {
				t.Fatalf("uniform traffic set %d: RCD = %d, want %d", s, d, n)
			}
		}
	}
	if got := tr.Imbalance(); math.Abs(got-1) > 1e-9 {
		t.Errorf("uniform Imbalance = %g, want 1", got)
	}
	if tr.SetsUsed() != n {
		t.Errorf("SetsUsed = %d, want %d", tr.SetsUsed(), n)
	}
}

// Observation 3: conflict traffic concentrated on one set yields a large
// short-RCD contribution factor; uniform traffic yields none.
func TestObservation3ContributionFactor(t *testing.T) {
	conflict := New(64)
	for i := 0; i < 1000; i++ {
		conflict.Observe(5) // hammer one victim set
	}
	if cf := conflict.ContributionFactor(DefaultThreshold); cf < 0.99 {
		t.Errorf("conflict cf = %g, want ~1", cf)
	}

	uniform := New(64)
	for round := 0; round < 20; round++ {
		for s := 0; s < 64; s++ {
			uniform.Observe(s)
		}
	}
	if cf := uniform.ContributionFactor(DefaultThreshold); cf != 0 {
		t.Errorf("uniform cf = %g, want 0 (all RCDs are 64 > 8)", cf)
	}
}

func TestContributionFactorCountsFirstMissesInDenominator(t *testing.T) {
	tr := New(8)
	tr.Observe(0) // no RCD
	tr.Observe(0) // RCD 1
	// One short RCD out of two total misses.
	if cf := tr.ContributionFactor(8); cf != 0.5 {
		t.Errorf("cf = %g, want 0.5", cf)
	}
}

func TestEmptyTracker(t *testing.T) {
	tr := New(4)
	if tr.ContributionFactor(8) != 0 || tr.Imbalance() != 0 || tr.VictimSets(2) != nil {
		t.Error("empty tracker should report zeros")
	}
}

func TestObserveOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range set should panic")
		}
	}()
	New(4).Observe(4)
}

func TestNewPanicsOnZeroSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) should panic")
		}
	}()
	New(0)
}

func TestVictimSets(t *testing.T) {
	tr := New(4)
	for i := 0; i < 97; i++ {
		tr.Observe(2)
	}
	tr.Observe(0)
	tr.Observe(1)
	tr.Observe(3)
	// Uniform share is 25 misses; set 2 has 97.
	vs := tr.VictimSets(2)
	if len(vs) != 1 || vs[0] != 2 {
		t.Errorf("VictimSets = %v, want [2]", vs)
	}
	if tr.Imbalance() < 3 {
		t.Errorf("Imbalance = %g, want ~3.88", tr.Imbalance())
	}
}

func TestPerSetHistogramsAndMisses(t *testing.T) {
	tr := New(4)
	tr.Observe(1)
	tr.Observe(1)
	tr.Observe(1)
	tr.Observe(2)
	if tr.SetMisses(1) != 3 || tr.SetMisses(2) != 1 {
		t.Errorf("SetMisses = %d/%d", tr.SetMisses(1), tr.SetMisses(2))
	}
	if tr.Hist().Total() != 2 {
		t.Errorf("pooled hist total = %d, want 2", tr.Hist().Total())
	}
}

// Property: for any miss sequence, 1 <= RCD <= Total, and the pooled
// histogram total equals misses minus first-touches.
func TestRCDBoundsProperty(t *testing.T) {
	f := func(seq []uint8) bool {
		tr := New(16)
		firsts := map[int]bool{}
		for _, raw := range seq {
			s := int(raw) % 16
			d := tr.Observe(s)
			if !firsts[s] {
				firsts[s] = true
				if d != NoPrior {
					return false
				}
				continue
			}
			if d < 1 || uint64(d) > tr.Total() {
				return false
			}
		}
		return tr.Hist().Total() == tr.Total()-uint64(len(firsts))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: RCD is scale-free — the metric depends only on the order of
// set IDs, not the address magnitudes (program/architecture independence).
func TestRCDDependsOnlyOnSequence(t *testing.T) {
	seq := []int{1, 5, 1, 2, 2, 5, 1}
	a, b := New(8), New(8)
	perm := map[int]int{1: 7, 5: 0, 2: 3} // relabel the sets
	for _, s := range seq {
		a.Observe(s)
		b.Observe(perm[s])
	}
	ah, bh := a.Hist(), b.Hist()
	if ah.Total() != bh.Total() {
		t.Fatal("relabelled sequence changed histogram size")
	}
	for _, v := range ah.Values() {
		if ah.Count(v) != bh.Count(v) {
			t.Errorf("RCD %d: %d vs %d under relabelling", v, ah.Count(v), bh.Count(v))
		}
	}
}

func TestCPTrackerRuns(t *testing.T) {
	// Set 0 misses back-to-back 5 times: RCDs 1,1,1,1 -> one run of 4.
	cp := NewCP(4)
	for i := 0; i < 5; i++ {
		cp.Observe(0)
	}
	// Switch pattern: alternate 0,1 so set 0 sees RCD 2: run of 1 (the old
	// RCD-1 run closes).
	cp.Observe(1)
	cp.Observe(0)
	cp.Observe(1)
	cp.Observe(0)
	cp.Flush()
	h := cp.Periods()
	if h.Count(4) != 1 {
		t.Errorf("expected one run of length 4, hist = %v", h)
	}
	if h.Total() < 2 {
		t.Errorf("expected at least two completed runs, hist = %v", h)
	}
}

func TestCPMeanPeriod(t *testing.T) {
	cp := NewCP(2)
	if cp.MeanPeriod() != 0 {
		t.Error("empty CP tracker mean should be 0")
	}
	for i := 0; i < 7; i++ {
		cp.Observe(0) // RCDs 1 x6 -> single run of 6
	}
	cp.Flush()
	if got := cp.MeanPeriod(); got != 6 {
		t.Errorf("MeanPeriod = %g, want 6", got)
	}
}

func TestCPFlushIdempotent(t *testing.T) {
	cp := NewCP(2)
	cp.Observe(0)
	cp.Observe(0)
	cp.Flush()
	before := cp.Periods().Total()
	cp.Flush()
	if cp.Periods().Total() != before {
		t.Error("double Flush added runs")
	}
}

func TestCPStablePatternHasLongPeriods(t *testing.T) {
	// A stable conflict (same set, constant RCD) has one long period; a
	// hopping conflict (victim set changes constantly) has short periods.
	stable := NewCP(8)
	for i := 0; i < 100; i++ {
		stable.Observe(3)
	}
	stable.Flush()

	hopping := NewCP(8)
	for i := 0; i < 100; i++ {
		hopping.Observe(i % 3) // RCD alternates per set
	}
	hopping.Flush()

	if stable.MeanPeriod() <= hopping.MeanPeriod() {
		t.Errorf("stable CP %g should exceed hopping CP %g",
			stable.MeanPeriod(), hopping.MeanPeriod())
	}
}

func BenchmarkObserve(b *testing.B) {
	tr := New(64)
	for i := 0; i < b.N; i++ {
		tr.Observe(i & 63)
	}
}
