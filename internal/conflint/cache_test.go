package conflint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mem"
	"repro/internal/obs"
)

// copyFixture clones a fixture package into a temp dir so tests can
// edit or fix it without touching the tree.
func copyFixture(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), filepath.Base(src))
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func marshalResult(t *testing.T, res *Result) string {
	t.Helper()
	js, err := json.Marshal(JSONReport{Kernels: res.Kernels, Findings: res.Diags})
	if err != nil {
		t.Fatal(err)
	}
	return string(js)
}

// TestCacheHitSkipsExtraction is the incremental-cache contract: the
// warm run must not re-extract a single kernel (asserted through the
// obs counters) and must still produce byte-identical output.
func TestCacheHitSkipsExtraction(t *testing.T) {
	cacheDir := t.TempDir()
	dirs := []string{pathologicalDir}

	cold := obs.New()
	res1 := mustRun(t, dirs, Config{CacheDir: cacheDir, Obs: cold})
	if got := cold.Counter("conflint.cache_misses").Load(); got != 1 {
		t.Fatalf("cold run cache_misses = %d, want 1", got)
	}
	if got := cold.Counter("conflint.kernels_extracted").Load(); got == 0 {
		t.Fatal("cold run extracted no kernels")
	}

	warm := obs.New()
	res2 := mustRun(t, dirs, Config{CacheDir: cacheDir, Obs: warm})
	if got := warm.Counter("conflint.cache_hits").Load(); got != 1 {
		t.Fatalf("warm run cache_hits = %d, want 1", got)
	}
	if got := warm.Counter("conflint.kernels_extracted").Load(); got != 0 {
		t.Fatalf("warm run extracted %d kernels, want 0", got)
	}
	if marshalResult(t, res1) != marshalResult(t, res2) {
		t.Error("cache hit output differs from cold run")
	}
}

// TestCacheInvalidation: any source edit — here a suppression comment,
// the subtlest kind — must change the key and force a re-lint.
func TestCacheInvalidation(t *testing.T) {
	dir := copyFixture(t, pathologicalDir)
	cacheDir := t.TempDir()

	mustRun(t, []string{dir}, Config{CacheDir: cacheDir})

	path := filepath.Join(dir, "pathological.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src = append(src, []byte("\n// an unrelated trailing comment\n")...)
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	mustRun(t, []string{dir}, Config{CacheDir: cacheDir, Obs: reg})
	if got := reg.Counter("conflint.cache_hits").Load(); got != 0 {
		t.Fatalf("edited package hit the cache (%d hits)", got)
	}
	if got := reg.Counter("conflint.cache_misses").Load(); got != 1 {
		t.Fatalf("cache_misses = %d, want 1", got)
	}
}

// TestDirKeyComponents pins what participates in the key: geometry and
// analyzer set changes must invalidate, path renames must too.
func TestDirKeyComponents(t *testing.T) {
	g := mem.L1Default()
	base, err := dirKey(pathologicalDir, g, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	small := g
	small.Ways = 4
	if k, _ := dirKey(pathologicalDir, small, Analyzers()); k == base {
		t.Error("geometry change did not move the key")
	}
	if k, _ := dirKey(pathologicalDir, g, Analyzers()[:2]); k == base {
		t.Error("analyzer-set change did not move the key")
	}
	if k, _ := dirKey(cleanDir, g, Analyzers()); k == base {
		t.Error("different directories share a key")
	}
}

// TestCacheCorruptEntryIsMiss: a torn or garbage cache file must fall
// back to a re-lint, never an error.
func TestCacheCorruptEntryIsMiss(t *testing.T) {
	cacheDir := t.TempDir()
	key, err := dirKey(pathologicalDir, mem.L1Default(), Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cacheDir, key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	res := mustRun(t, []string{pathologicalDir}, Config{CacheDir: cacheDir, Obs: reg})
	if got := reg.Counter("conflint.cache_misses").Load(); got != 1 {
		t.Fatalf("cache_misses = %d, want 1", got)
	}
	if len(res.Diags) == 0 {
		t.Fatal("re-lint after corrupt entry produced nothing")
	}
}
