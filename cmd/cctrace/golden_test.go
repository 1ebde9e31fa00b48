package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden files instead of diffing against them:
//
//	go test ./cmd/cctrace -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
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
		t.Fatalf("%v (run `go test ./cmd/cctrace -run TestGolden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from %s.\nIf the change is intentional, re-golden with -update.\n--- got ---\n%s\n--- want ---\n%s",
			name, path, got, want)
	}
}

// TestGolden pins cctrace's JSONL ingestion end to end: the perf-script
// style sample decodes to a fixed reference dump, its summary statistics
// are stable, and converting it to the framed binary format and decoding
// that back yields the same references (minus the skipped metadata
// records, which never enter the binary trace).
func TestGolden(t *testing.T) {
	input := filepath.Join("testdata", "perf.jsonl")

	t.Run("dump", func(t *testing.T) {
		var buf bytes.Buffer
		if err := dump(&buf, input, true, 0); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "perf.dump.golden", buf.Bytes())
	})

	t.Run("stats", func(t *testing.T) {
		var buf bytes.Buffer
		if err := printStats(&buf, input, true, 0); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "perf.stats.golden", buf.Bytes())
	})

	t.Run("framed-roundtrip", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "perf.cctb")
		var conv bytes.Buffer // report embeds the temp path; not goldened
		if err := convert(&conv, input, out, true, 4, 0); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dump(&buf, out, false, 0); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "perf.framed.dump.golden", buf.Bytes())
	})

	t.Run("head", func(t *testing.T) {
		var buf bytes.Buffer
		if err := dump(&buf, input, true, 3); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "perf.head3.dump.golden", buf.Bytes())
	})
}
