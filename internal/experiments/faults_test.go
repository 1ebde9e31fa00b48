package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFaultsLossTolerance is the experiment's headline claim in executable
// form: at ≥10% injected sample loss the classifier's confusion matrix
// must not regress from the clean baseline, and the recovery machinery
// must have actually been exercised (injected shard faults recovered, no
// shards lost).
func TestFaultsLossTolerance(t *testing.T) {
	rows := sharedRows[[]FaultsRow](t, "faults")
	if len(rows) != len(FaultsRates) {
		t.Fatalf("%d rows, want %d", len(rows), len(FaultsRates))
	}
	base := rows[0]
	if base.Rate != 0 || base.LostFrac != 0 || base.Corrupted != 0 {
		t.Fatalf("baseline row is not clean: %+v", base)
	}
	sawTenPct := false
	for _, r := range rows[1:] {
		if r.Rate >= 0.10 && r.LostFrac >= 0.10 {
			sawTenPct = true
		}
		if r.LostFrac == 0 {
			t.Errorf("rate %.2f lost no samples", r.Rate)
		}
		if r.Accuracy() < base.Accuracy() || r.F1() < base.F1() {
			t.Errorf("rate %.2f regressed: accuracy %.2f < %.2f or F1 %.2f < %.2f",
				r.Rate, r.Accuracy(), base.Accuracy(), r.F1(), base.F1())
		}
		if r.ShardsLost != 0 {
			t.Errorf("rate %.2f lost %d shards despite retries", r.Rate, r.ShardsLost)
		}
	}
	if !sawTenPct {
		t.Error("sweep never reached 10% sample loss")
	}
	var retries int
	for _, r := range rows {
		retries += r.Retries
		// In a full (non-resumed) run the engine's observed recovery work
		// must coincide with the plan-derived counts the report renders.
		if r.ExecRetries != r.Retries || r.ExecPanics != r.Panics {
			t.Errorf("rate %.2f: engine (%d retries, %d panics) != plan (%d, %d)",
				r.Rate, r.ExecRetries, r.ExecPanics, r.Retries, r.Panics)
		}
	}
	if retries == 0 {
		t.Error("infrastructure faults never fired: recovery machinery untested")
	}
}

// TestFaultsCheckpointResume is the kill-mid-run contract: a faults run
// whose checkpoints hold only part of the work (a torn prefix of one
// rate's file, later rates missing entirely) must, on resume, skip the
// persisted shards and render a byte-identical final report.
func TestFaultsCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	defer SetCheckpoint("", false)

	SetCheckpoint(dir, false)
	var clean bytes.Buffer
	if _, err := Faults(&clean, Quick); err != nil {
		t.Fatal(err)
	}

	// Simulate the kill: rate 0's checkpoint keeps only 7 of 12 shards,
	// with a torn trailing half-line; the later rates' checkpoints vanish
	// entirely (the run never got there).
	ck0 := filepath.Join(dir, "faults-rate0.ckpt")
	raw, err := os.ReadFile(ck0)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	torn := strings.Join(lines[:7], "") + lines[7][:len(lines[7])/2]
	if err := os.WriteFile(ck0, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	for ri := 1; ri < len(FaultsRates); ri++ {
		if err := os.Remove(filepath.Join(dir, "faults-rate"+string(rune('0'+ri))+".ckpt")); err != nil {
			t.Fatal(err)
		}
	}

	SetCheckpoint(dir, true)
	var resumed bytes.Buffer
	rows, err := Faults(&resumed, Quick)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].ExecRestored != 7 {
		t.Errorf("rate 0 restored %d shards, want 7", rows[0].ExecRestored)
	}
	if !bytes.Equal(clean.Bytes(), resumed.Bytes()) {
		t.Errorf("resumed report diverged from the uninterrupted one:\n--- clean ---\n%s\n--- resumed ---\n%s",
			clean.String(), resumed.String())
	}

	// A second resume restores everything, re-runs nothing, and still
	// renders the identical report.
	SetCheckpoint(dir, true)
	var again bytes.Buffer
	rows2, err := Faults(&again, Quick)
	if err != nil {
		t.Fatal(err)
	}
	all := 2 * len(caseStudies(Quick))
	for _, r := range rows2 {
		if r.ExecRestored != all || r.ExecRetries != 0 || r.ExecPanics != 0 {
			t.Errorf("rate %.2f: second resume re-ran shards: restored %d retries %d panics %d",
				r.Rate, r.ExecRestored, r.ExecRetries, r.ExecPanics)
		}
	}
	if !bytes.Equal(clean.Bytes(), again.Bytes()) {
		t.Error("fully-restored report diverged from the uninterrupted one")
	}
}

// TestFaultsReportAnnotated: the rendered report always carries the
// degraded-mode annotation line.
func TestFaultsReportAnnotated(t *testing.T) {
	out := string(sharedRun(t, "faults", 0).text)
	if !strings.Contains(out, "degraded: ") {
		t.Errorf("report lacks the degraded annotation:\n%s", out)
	}
	if !strings.Contains(out, "samples dropped") {
		t.Errorf("annotation lacks the sample ledger:\n%s", out)
	}
}
