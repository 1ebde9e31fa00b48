package advisor

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/candidates.golden")

const candidatesGolden = "testdata/candidates.golden"

// candidateLines simulates every default-scale case study at every
// DefaultPads pad, with no pruning, and returns one
// "case pad misses l2misses cycles cf-bits" line per candidate in a fixed
// order.
func candidateLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, name := range workloads.Names() {
		cs, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RecommendPad(cs.PadBuilder, Options{Pads: DefaultPads})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Candidates) != len(DefaultPads) {
			t.Fatalf("%s: %d candidates, want %d", name, len(res.Candidates), len(DefaultPads))
		}
		for _, c := range res.Candidates {
			lines = append(lines, fmt.Sprintf("%s %d %d %d %d %016x",
				name, c.Pad, c.Misses, c.L2Misses, c.Cycles, math.Float64bits(c.CF)))
		}
	}
	return lines
}

// TestCandidatesGolden pins the advisor's cost model: every case study's
// exact L1 misses, L2 misses, cycle cost and CF bits at every default pad
// must match testdata/candidates.golden. Any change to a kernel's address
// stream, to how a candidate is run, or to how the evaluator classifies
// and costs it shows here. Regenerate with
// "go test ./internal/advisor -run TestCandidatesGolden -args -update"
// only when the scores are meant to change.
func TestCandidatesGolden(t *testing.T) {
	got := candidateLines(t)
	if *update {
		body := "# case pad l1-misses l2-misses cycles cf-float64-bits\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(candidatesGolden, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(candidatesGolden)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want []string
	for _, l := range strings.Split(string(data), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d candidates, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("candidate %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
