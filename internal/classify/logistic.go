// Package classify implements the simple logistic regression CCProf uses to
// turn a loop's short-RCD contribution factor into a binary conflict-miss
// verdict (§3.4 of the paper).
//
// "Simple" is the statistical term of art: one independent variable (the
// contribution factor under the RCD threshold) and one binary outcome
// (conflict misses / no conflict misses). The paper trains the model on 16
// representative loops — eight with conflicts, eight without — and
// validates with 8-fold cross-validation scored by F1 (Figure 8).
package classify

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/stats"
)

// Logistic is a trained one-feature logistic regression model:
// P(conflict | x) = sigmoid(Bias + Weight*x).
type Logistic struct {
	Bias   float64
	Weight float64
}

// Prob returns the model's conflict probability for feature value x.
func (m Logistic) Prob(x float64) float64 {
	return sigmoid(m.Bias + m.Weight*x)
}

// Predict returns the binary verdict: conflict when Prob(x) >= 0.5.
func (m Logistic) Predict(x float64) bool { return m.Prob(x) >= 0.5 }

// Threshold returns the feature value at the decision boundary
// (Prob == 0.5), or NaN for a degenerate zero-weight model.
func (m Logistic) Threshold() float64 {
	if m.Weight == 0 {
		return math.NaN()
	}
	return -m.Bias / m.Weight
}

func (m Logistic) String() string {
	return fmt.Sprintf("logistic(bias=%.3f weight=%.3f boundary=%.3f)", m.Bias, m.Weight, m.Threshold())
}

func sigmoid(z float64) float64 {
	// Numerically stable in both tails.
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Gradient-descent settings of Train.
const (
	learningRate = 1.0
	iterations   = 5000
	ridge        = 1e-3 // L2 penalty; keeps the weights of separable data finite
)

// Train fits a logistic model to (features[i], labels[i]) pairs by batch
// gradient descent on the regularized log-loss. It returns an error when
// the inputs are empty or mismatched.
func Train(features []float64, labels []bool) (Logistic, error) {
	if len(features) == 0 {
		return Logistic{}, fmt.Errorf("classify: no training data")
	}
	if len(features) != len(labels) {
		return Logistic{}, fmt.Errorf("classify: %d features but %d labels", len(features), len(labels))
	}
	var m Logistic
	n := float64(len(features))
	for it := 0; it < iterations; it++ {
		var g0, g1 float64
		for i, x := range features {
			y := 0.0
			if labels[i] {
				y = 1.0
			}
			err := m.Prob(x) - y
			g0 += err
			g1 += err * x
		}
		g0 = g0/n + ridge*m.Bias
		g1 = g1/n + ridge*m.Weight
		m.Bias -= learningRate * g0
		m.Weight -= learningRate * g1
	}
	return m, nil
}

// Evaluate scores the model against labelled data.
func (m Logistic) Evaluate(features []float64, labels []bool) stats.Confusion {
	var c stats.Confusion
	for i, x := range features {
		c.Observe(m.Predict(x), labels[i])
	}
	return c
}

// CrossValidate performs k-fold cross-validation: for each fold it trains
// on the remaining folds and scores predictions on the held-out fold,
// pooling all held-out predictions into one confusion matrix (whose F1 is
// what Figure 8 plots). rng shuffles the fold assignment; pass a seeded
// source for reproducibility.
func CrossValidate(features []float64, labels []bool, k int, rng *rand.Rand) (stats.Confusion, error) {
	var pooled stats.Confusion
	if len(features) != len(labels) {
		return pooled, fmt.Errorf("classify: %d features but %d labels", len(features), len(labels))
	}
	folds, err := stats.KFold(len(features), k, rng)
	if err != nil {
		return pooled, err
	}
	for fi, hold := range folds {
		inHold := make(map[int]bool, len(hold))
		for _, i := range hold {
			inHold[i] = true
		}
		var trainX []float64
		var trainY []bool
		for i := range features {
			if !inHold[i] {
				trainX = append(trainX, features[i])
				trainY = append(trainY, labels[i])
			}
		}
		m, err := Train(trainX, trainY)
		if err != nil {
			return pooled, fmt.Errorf("classify: fold %d: %w", fi, err)
		}
		for _, i := range hold {
			pooled.Observe(m.Predict(features[i]), labels[i])
		}
	}
	return pooled, nil
}
