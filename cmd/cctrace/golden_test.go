package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
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

// TestHeadStopsAtN: -head N delivers and reports exactly N references from
// JSONL and from framed input, whether N ends inside a frame or on a frame
// boundary, and reads no further than the record or frame holding the Nth.
func TestHeadStopsAtN(t *testing.T) {
	input := filepath.Join("testdata", "perf.jsonl")
	framed := filepath.Join(t.TempDir(), "perf.cctb")
	if err := convert(io.Discard, input, framed, true, 4, 0); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path  string
		jsonl bool
		head  uint64
	}{
		{input, true, 3}, {framed, false, 3}, {framed, false, 4}, {framed, false, 6},
	} {
		var buf bytes.Buffer
		if err := printStats(&buf, tc.path, tc.jsonl, tc.head); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("references: %d (", tc.head)
		if !strings.HasPrefix(buf.String(), want) {
			t.Errorf("-head %d -stats %s: got %q, want a %q line", tc.head, tc.path, buf.String(), want)
		}
	}
	// The framed reader stops at the frame holding the Nth reference: a
	// corrupt frame after it is never decoded.
	data, err := os.ReadFile(framed)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.cctb")
	if err := os.WriteFile(cut, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := printStats(io.Discard, cut, false, 4); err != nil {
		t.Errorf("-head 4 read past its first frame: %v", err)
	}
	if err := printStats(io.Discard, cut, false, 0); err == nil {
		t.Error("the truncated trace read in full reported no error")
	}
}
