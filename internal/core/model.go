package core

import (
	"sync"

	"repro/internal/classify"
)

// builtinTraining is the default training set for the conflict classifier:
// short-RCD contribution factors measured (with this repository's sampler
// at the recommended mean period region) on sixteen representative loops —
// eight suffering from conflict misses and eight conflict-free — mirroring
// the 16-loop training set of §5.2.
var builtinTraining = struct {
	cf     []float64
	labels []bool
}{
	cf: []float64{
		// Conflicted: adi, fft, tinydnn, kripke, symmetrization, nw,
		// plus two parameter variants.
		0.89, 0.95, 0.96, 0.87, 0.43, 0.61, 0.90, 0.72,
		// Clean: backprop, bfs, kmeans, lud, pathfinder, srad,
		// streamcluster, heartwall.
		0.13, 0.09, 0.08, 0.12, 0.13, 0.13, 0.04, 0.09,
	},
	labels: []bool{
		true, true, true, true, true, true, true, true,
		false, false, false, false, false, false, false, false,
	},
}

var (
	defaultModelOnce sync.Once
	defaultModel     classify.Logistic
)

// DefaultModel returns the built-in conflict classifier, trained once on
// the embedded 16-loop dataset. Training is deterministic, so the model is
// identical in every process.
func DefaultModel() classify.Logistic {
	defaultModelOnce.Do(func() {
		m, err := classify.Train(builtinTraining.cf, builtinTraining.labels, classify.TrainOptions{})
		if err != nil {
			panic("core: training builtin model: " + err.Error())
		}
		defaultModel = m
	})
	return defaultModel
}
