package e2e_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestTraceCLIs drives the trace tools end to end: ccsim dumps a workload's
// stream as a framed (CCTB) trace, replaying that trace reproduces the
// direct run's report byte for byte, cctrace reads it, and both tools
// refuse a trace in the retired flat (CCT1) format.
func TestTraceCLIs(t *testing.T) {
	dir := t.TempDir()
	dumped := filepath.Join(dir, "kripke.cctb")
	direct, stderr, exit := run(t, "ccsim", "-workload", "kripke", "-dump", dumped)
	if exit != 0 {
		t.Fatalf("ccsim -workload kripke -dump: exit %d, stderr %q", exit, stderr)
	}
	refs := regexp.MustCompile(`(?m)^refs: (\d+) `).FindStringSubmatch(direct)
	if refs == nil {
		t.Fatalf("ccsim output has no refs line:\n%s", direct)
	}

	t.Run("ccsim-dump-is-framed", func(t *testing.T) {
		data, err := os.ReadFile(dumped)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("CCTB")) {
			t.Errorf("dumped trace starts with %q, want the CCTB magic", data[:min(4, len(data))])
		}
	})

	t.Run("ccsim-replay-matches-direct-run", func(t *testing.T) {
		replayed, stderr, exit := run(t, "ccsim", "-trace", dumped)
		if exit != 0 {
			t.Fatalf("ccsim -trace: exit %d, stderr %q", exit, stderr)
		}
		if replayed != direct {
			t.Errorf("replaying the dump changed the report:\n--- direct ---\n%s\n--- replayed ---\n%s", direct, replayed)
		}
	})

	t.Run("cctrace-stats", func(t *testing.T) {
		stdout, stderr, exit := run(t, "cctrace", "-stats", dumped)
		if exit != 0 {
			t.Fatalf("cctrace -stats: exit %d, stderr %q", exit, stderr)
		}
		if !strings.HasPrefix(stdout, "references: "+refs[1]+" ") {
			t.Errorf("cctrace -stats disagrees with ccsim's %s refs:\n%s", refs[1], stdout)
		}
	})

	t.Run("legacy-flat-trace-refused", func(t *testing.T) {
		flat := []byte("CCT1")
		for i := uint64(0); i < 3; i++ {
			flat = binary.LittleEndian.AppendUint64(flat, 0x401000+4*i) // IP
			flat = binary.LittleEndian.AppendUint64(flat, 0x10000+64*i) // Addr
			flat = append(flat, 0)                                      // read
		}
		legacy := filepath.Join(dir, "legacy.cct")
		if err := os.WriteFile(legacy, flat, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{"ccsim", "-trace", legacy}, {"cctrace", "-stats", legacy}} {
			_, stderr, exit := run(t, args[0], args[1:]...)
			if exit != 1 || !strings.Contains(stderr, "framed (CCTB)") {
				t.Errorf("%v: exit %d, stderr %q; want exit 1 naming the framed format", args, exit, stderr)
			}
		}
	})

	t.Run("failed-writes-leave-no-output", func(t *testing.T) {
		work := t.TempDir()
		bad := filepath.Join(work, "bad.cctb")
		if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(dumped)
		if err != nil {
			t.Fatal(err)
		}
		cut := filepath.Join(work, "cut.cctb") // valid header and frames, then a torn one
		if err := os.WriteFile(cut, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(work, "out.cctb")
		for _, args := range [][]string{
			{"cctrace", "-in", bad, "-out", out},
			{"cctrace", "-in", cut, "-out", out},
			{"ccsim", "-trace", bad, "-dump", out},
			{"ccsim", "-trace", cut, "-dump", out},
		} {
			if _, stderr, exit := run(t, args[0], args[1:]...); exit != 1 {
				t.Errorf("%v: exit %d, want 1 (stderr %q)", args, exit, stderr)
			}
			entries, err := os.ReadDir(work)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 2 {
				var names []string
				for _, e := range entries {
					names = append(names, e.Name())
				}
				t.Errorf("%v left files behind: %v", args, names)
			}
		}
	})

	t.Run("retired-format-flags-are-usage-errors", func(t *testing.T) {
		out := filepath.Join(dir, "out.cct")
		for _, args := range [][]string{
			{"cctrace", "-format", "flat", "-in", dumped, "-out", out},
			{"cctrace", "-compress", "-in", dumped, "-out", out},
			{"ccsim", "-compress", "-workload", "kripke"},
		} {
			if _, _, exit := run(t, args[0], args[1:]...); exit != 2 {
				t.Errorf("%v: exit %d, want 2 (usage error)", args, exit)
			}
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("a refused conversion still wrote %s (stat err %v)", out, err)
		}
	})
}
