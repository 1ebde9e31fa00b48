package classify

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// paperLikeData mimics the 16 training loops: 8 conflict-heavy (high cf)
// and 8 clean (low cf).
func paperLikeData() ([]float64, []bool) {
	features := []float64{
		0.88, 0.71, 0.92, 0.80, 0.65, 0.75, 0.95, 0.60, // conflict loops
		0.10, 0.15, 0.20, 0.05, 0.12, 0.18, 0.08, 0.22, // clean loops
	}
	labels := make([]bool, 16)
	for i := 0; i < 8; i++ {
		labels[i] = true
	}
	return features, labels
}

func TestSigmoidStability(t *testing.T) {
	if got := sigmoid(0); got != 0.5 {
		t.Errorf("sigmoid(0) = %g, want 0.5", got)
	}
	if got := sigmoid(1000); got != 1 {
		t.Errorf("sigmoid(1000) = %g, want 1", got)
	}
	if got := sigmoid(-1000); got != 0 {
		t.Errorf("sigmoid(-1000) = %g, want 0", got)
	}
	if math.IsNaN(sigmoid(-745)) || math.IsNaN(sigmoid(745)) {
		t.Error("sigmoid produced NaN in the tails")
	}
}

func TestTrainSeparatesPaperData(t *testing.T) {
	x, y := paperLikeData()
	m, err := Train(x, y)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Evaluate(x, y)
	if c.F1() != 1 {
		t.Errorf("training-set F1 = %g, want 1 (%v)", c.F1(), c)
	}
	// The boundary must sit between the two clusters.
	b := m.Threshold()
	if b <= 0.22 || b >= 0.60 {
		t.Errorf("decision boundary = %g, want in (0.22, 0.60)", b)
	}
	if m.Weight <= 0 {
		t.Errorf("weight = %g, want positive (higher cf => more conflict)", m.Weight)
	}
}

func TestProbMonotoneInFeature(t *testing.T) {
	x, y := paperLikeData()
	m, err := Train(x, y)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		a, b = math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		return m.Prob(a) <= m.Prob(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil); err == nil {
		t.Error("empty training set should error")
	}
	if _, err := Train([]float64{1}, []bool{true, false}); err == nil {
		t.Error("mismatched lengths should error")
	}
}

func TestThresholdDegenerate(t *testing.T) {
	if !math.IsNaN((Logistic{}).Threshold()) {
		t.Error("zero-weight model threshold should be NaN")
	}
}

func TestStringContainsBoundary(t *testing.T) {
	m := Logistic{Bias: -2, Weight: 4}
	if s := m.String(); !strings.Contains(s, "0.5") {
		t.Errorf("String() = %q, expected boundary 0.5", s)
	}
}

func TestCrossValidatePerfectlySeparable(t *testing.T) {
	x, y := paperLikeData()
	c, err := CrossValidate(x, y, 8, stats.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if c.F1() != 1 {
		t.Errorf("8-fold CV F1 = %g, want 1 (%v)", c.F1(), c)
	}
}

func TestCrossValidateNoisyData(t *testing.T) {
	// Overlapping clusters: CV F1 should be high but below perfect.
	x := []float64{0.9, 0.8, 0.7, 0.3, 0.6, 0.75, 0.85, 0.5, // positives, one at 0.3
		0.1, 0.2, 0.3, 0.7, 0.15, 0.25, 0.05, 0.4} // negatives, one at 0.7
	y := make([]bool, 16)
	for i := 0; i < 8; i++ {
		y[i] = true
	}
	c, err := CrossValidate(x, y, 4, stats.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if c.F1() < 0.6 || c.F1() >= 1 {
		t.Errorf("noisy CV F1 = %g, want in [0.6, 1)", c.F1())
	}
}

func TestCrossValidateErrors(t *testing.T) {
	if _, err := CrossValidate([]float64{1}, []bool{true, false}, 2, nil); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := CrossValidate([]float64{1, 2}, []bool{true, false}, 5, nil); err == nil {
		t.Error("k > n should error")
	}
}

func TestCrossValidateCoversAllSamples(t *testing.T) {
	x, y := paperLikeData()
	c, err := CrossValidate(x, y, 8, stats.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if total := c.TP + c.FP + c.TN + c.FN; total != len(x) {
		t.Errorf("CV scored %d samples, want %d", total, len(x))
	}
}

func TestTrainDeterministic(t *testing.T) {
	x, y := paperLikeData()
	a, _ := Train(x, y)
	b, _ := Train(x, y)
	if a != b {
		t.Errorf("training not deterministic: %v vs %v", a, b)
	}
}

// Property: flipping all labels flips the sign of the learned weight.
func TestLabelFlipFlipsWeight(t *testing.T) {
	x, y := paperLikeData()
	flipped := make([]bool, len(y))
	for i, v := range y {
		flipped[i] = !v
	}
	m1, _ := Train(x, y)
	m2, _ := Train(x, flipped)
	if m1.Weight*m2.Weight >= 0 {
		t.Errorf("weights should have opposite signs: %g vs %g", m1.Weight, m2.Weight)
	}
}

func BenchmarkTrain(b *testing.B) {
	x, y := paperLikeData()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
