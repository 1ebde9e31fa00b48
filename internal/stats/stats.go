// Package stats provides the small statistical toolkit CCProf's analyses
// rely on: histograms and CDFs over integer-valued metrics (RCD values),
// binary-classification scoring (precision, recall, F1), k-fold splits for
// cross-validation, and a deterministic RNG so every experiment is
// reproducible run-to-run.
package stats

import "math/rand"

// NewRand returns a deterministic pseudo-random source for experiments.
// Every randomized component in this repository (sampling-period jitter,
// k-fold shuffles, random replacement) draws from an explicitly seeded
// source so published experiment outputs are exactly reproducible.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
