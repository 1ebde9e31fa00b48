package advisor

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/workloads"
)

// TestRecommendPadSerialParallelIdentical pins the sweep executor's core
// guarantee for the advisor: the full result — every candidate's exact
// miss counts, cycles and CF, the recommendation, and the pruning list —
// is byte-identical whether the pad candidates are evaluated serially or
// fanned across eight workers.
func TestRecommendPadSerialParallelIdentical(t *testing.T) {
	cs := workloads.NewADI(128, 1)
	run := func(workers int) []byte {
		res, err := RecommendPad(cs.PadBuilder, Options{
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("advisor sweep differs between -j1 and -j8:\n%s\n---\n%s", serial, parallel)
	}
}
