package conflint

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/mem"
)

// cacheVersion invalidates every cached entry when the result schema or
// analyzer semantics change. Bump it whenever DirResult's JSON shape or
// any rule's behavior moves.
const cacheVersion = "conflint-cache-v2"

// dirKey derives the cache key for one package directory: the cache
// version, the geometry, the analyzer set, the directory path, and the
// content hash of every non-test Go file in it. Any source edit —
// including to a suppression comment — changes the key, so a hit is
// byte-equivalent to a cold run.
func dirKey(dir string, g mem.Geometry, analyzers []*Analyzer) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)

	h := sha256.New()
	fmt.Fprintf(h, "%s\n%+v\n", cacheVersion, g)
	for _, a := range analyzers {
		fmt.Fprintf(h, "%s\n", a.Name)
	}
	fmt.Fprintf(h, "%s\n", filepath.ToSlash(dir))
	for _, n := range names {
		src, err := readFile(filepath.Join(dir, n))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %x\n", n, sha256.Sum256(src))
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// cacheGet loads a cached DirResult. Any read or decode failure is a
// miss — the cache is advisory and rebuilt on demand.
func cacheGet(cacheDir, key string) (DirResult, bool) {
	data, err := os.ReadFile(filepath.Join(cacheDir, key+".json"))
	if err != nil {
		return DirResult{}, false
	}
	var dr DirResult
	if err := json.Unmarshal(data, &dr); err != nil {
		return DirResult{}, false
	}
	if dr.Diags == nil {
		dr.Diags = []Diagnostic{}
	}
	return dr, true
}

// cachePut stores a DirResult atomically (temp file + rename) so a
// concurrent reader never sees a torn entry. Failures are silent: the
// cache is an optimization, not a correctness dependency.
func cachePut(cacheDir, key string, dr DirResult) {
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return
	}
	data, err := json.Marshal(dr)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(cacheDir, key+".tmp*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), filepath.Join(cacheDir, key+".json")); err != nil {
		os.Remove(tmp.Name())
	}
}
