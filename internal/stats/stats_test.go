package stats

import (
	"math"
	"testing"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestIntHistBasics(t *testing.T) {
	var h IntHist
	if h.Total() != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Add(3)
	h.Add(3)
	h.Add(1)
	h.AddN(7, 4)
	if h.Total() != 7 || h.Count(3) != 2 || h.Count(1) != 1 || h.Count(7) != 4 {
		t.Errorf("unexpected counts: %v", h.String())
	}
	if h.Distinct() != 3 {
		t.Errorf("Distinct=%d, want 3", h.Distinct())
	}
	if got := h.Values(); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 7 {
		t.Errorf("Values() = %v", got)
	}
}

func TestIntHistMerge(t *testing.T) {
	var a, b IntHist
	a.Add(1)
	b.Add(1)
	b.Add(2)
	a.Merge(&b)
	if a.Total() != 3 || a.Count(1) != 2 || a.Count(2) != 1 {
		t.Errorf("after merge: %s", a.String())
	}
}

func TestConfusionScores(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.Accuracy() != 0 {
		t.Error("empty confusion should score 0")
	}
	// 3 TP, 1 FP, 4 TN, 1 FN
	for i := 0; i < 3; i++ {
		c.Observe(true, true)
	}
	c.Observe(true, false)
	for i := 0; i < 4; i++ {
		c.Observe(false, false)
	}
	c.Observe(false, true)
	if !almostEqual(c.Precision(), 0.75) {
		t.Errorf("Precision = %g, want 0.75", c.Precision())
	}
	if !almostEqual(c.Recall(), 0.75) {
		t.Errorf("Recall = %g, want 0.75", c.Recall())
	}
	if !almostEqual(c.F1(), 0.75) {
		t.Errorf("F1 = %g, want 0.75", c.F1())
	}
	if !almostEqual(c.Accuracy(), 7.0/9) {
		t.Errorf("Accuracy = %g, want %g", c.Accuracy(), 7.0/9)
	}
}

func TestPerfectClassifierF1IsOne(t *testing.T) {
	var c Confusion
	c.Observe(true, true)
	c.Observe(false, false)
	if c.F1() != 1 {
		t.Errorf("perfect classifier F1 = %g, want 1", c.F1())
	}
}

func TestKFold(t *testing.T) {
	folds, err := KFold(16, 8, NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 8 {
		t.Fatalf("got %d folds, want 8", len(folds))
	}
	seen := map[int]bool{}
	for _, f := range folds {
		if len(f) != 2 {
			t.Errorf("fold size %d, want 2", len(f))
		}
		for _, i := range f {
			if seen[i] {
				t.Errorf("index %d appears twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 16 {
		t.Errorf("covered %d indices, want 16", len(seen))
	}
}

func TestKFoldUneven(t *testing.T) {
	folds, err := KFold(10, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, f := range folds {
		if len(f) < 3 || len(f) > 4 {
			t.Errorf("fold size %d, want 3 or 4", len(f))
		}
		total += len(f)
	}
	if total != 10 {
		t.Errorf("total = %d, want 10", total)
	}
}

func TestKFoldErrors(t *testing.T) {
	if _, err := KFold(5, 0, nil); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := KFold(5, 6, nil); err == nil {
		t.Error("k>n should error")
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("NewRand not deterministic for equal seeds")
		}
	}
}
