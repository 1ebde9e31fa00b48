package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden files instead of diffing against them:
//
//	go test ./internal/experiments -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenNames lists the experiments pinned by golden files. These are the
// deterministic core of the suite — every byte of their Quick-scale output
// is a function of the simulated work alone, so any diff is a behavior
// change that must be either fixed or consciously re-goldened with -update.
var goldenNames = []string{
	"fig7", "fig8", "fig9", "table2", "table3", "table4",
	"staticconf", "analytic", "specgen", "faults", "streaming",
	"ablation-burst", "ablation-associativity", "ablation-threshold",
	"ablation-period-dist", "ablation-replacement",
}

// TestGolden diffs each experiment's rendered Quick-scale report
// byte-for-byte against its checked-in golden file. The runs (shared with
// the determinism suites) come from the same registry the CLI uses, so the
// goldens pin exactly what `experiments -quick -run <name>` prints.
func TestGolden(t *testing.T) {
	for _, name := range goldenNames {
		t.Run(name, func(t *testing.T) {
			got := sharedRun(t, name, 0).text
			path := filepath.Join("testdata", "golden", name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/experiments -run TestGolden -update` to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s output diverged from %s (got %d bytes, want %d).\nIf the change is intentional, re-golden with -update.\n--- got ---\n%s\n--- want ---\n%s",
					name, path, len(got), len(want), clip(string(got)), clip(string(want)))
			}
		})
	}
}

// clip bounds a report for the failure message.
func clip(s string) string {
	const max = 4096
	if len(s) > max {
		return s[:max] + "\n... [truncated]"
	}
	return s
}
