package specgen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// inDir runs fn with dir as the working directory.
func inDir(t *testing.T, dir string, fn func()) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
}

// TestWorkloadsDirSkipsOtherModules: WorkloadsDir takes the nearest go.mod
// of this module, not the nearest go.mod. Inside another module that has
// an internal/workloads of its own it keeps climbing, and it fails, naming
// the module, when no go.mod of this module encloses the directory.
func TestWorkloadsDirSkipsOtherModules(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("repro/go.mod", "module repro\n\ngo 1.22\n")
	write("repro/internal/workloads/w.go", "package workloads\n")
	write("repro/other/go.mod", "module other\n\ngo 1.22\n")
	write("repro/other/internal/workloads/w.go", "package workloads\n")
	write("lone/go.mod", "module other\n")
	write("lone/internal/workloads/w.go", "package workloads\n")

	inDir(t, filepath.Join(root, "repro", "other", "internal"), func() {
		got, err := WorkloadsDir()
		if want := filepath.Join(root, "repro", "internal", "workloads"); err != nil || !sameDir(got, want) {
			t.Errorf("inside a nested module: WorkloadsDir() = %q, %v; want %q", got, err, want)
		}
	})
	inDir(t, filepath.Join(root, "lone"), func() {
		got, err := WorkloadsDir()
		if err == nil || !strings.Contains(err.Error(), "module "+workloadsModule) {
			t.Errorf("outside the module: WorkloadsDir() = %q, %v; want an error naming module %s", got, err, workloadsModule)
		}
	})
}

// TestWorkloadsDirFromPerfbench: from the nested perfbench module the
// extractor still reads this checkout's internal/workloads.
func TestWorkloadsDirFromPerfbench(t *testing.T) {
	want, err := filepath.Abs(filepath.Join("..", "workloads"))
	if err != nil {
		t.Fatal(err)
	}
	inDir(t, filepath.Join("..", "..", "perfbench"), func() {
		got, err := WorkloadsDir()
		if err != nil || !sameDir(got, want) {
			t.Errorf("from perfbench/: WorkloadsDir() = %q, %v; want %q", got, err, want)
		}
	})
}

// sameDir reports whether a and b name the same existing directory.
func sameDir(a, b string) bool {
	ia, err := os.Stat(a)
	if err != nil {
		return false
	}
	ib, err := os.Stat(b)
	return err == nil && os.SameFile(ia, ib)
}
