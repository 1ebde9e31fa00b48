package conflint

import (
	"fmt"
	"go/ast"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/analytic"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/specgen"
	"repro/internal/staticconf"
)

// Analyzer is one lint rule: a named check over a Pass. Analyzers are
// stateless; all shared work (extraction, the analytic verdict and its
// pricing) lives on the Pass so every rule reads the same artifacts.
type Analyzer struct {
	Name string // rule id, e.g. "pow2-stride"
	Doc  string // one-line description for the SARIF rule catalog
	Run  func(*Pass) error
}

// Analyzers returns the default analyzer set, in execution order.
func Analyzers() []*Analyzer {
	return []*Analyzer{StaticConflict, Pow2Stride, SetCamping, AliasingBases, FalseSharing, PadFix}
}

// Kernel is one extracted kernel variant shared by all analyzers, with
// the analytic model's report computed once: its predicted contribution
// factor and its conflict verdict.
type Kernel struct {
	Ctor    string // constructor function name
	Variant string // "", "Original", "Optimized"
	Label   string // Ctor or "Ctor/Variant"
	Ex      *specgen.Extraction
	Decl    *ast.FuncDecl
	// PredCF is the closed-form predicted contribution factor (0 when
	// the model could not run), Static the analytic model's report (nil
	// when the spec did not analyze).
	PredCF float64
	Static *analytic.Report
}

// Pass is the per-directory context handed to every analyzer.
type Pass struct {
	Dir     string
	Pkg     *specgen.Package
	Geom    mem.Geometry
	Kernels []*Kernel

	diags []Diagnostic
	c     *counters
}

// Report records a diagnostic. The accesses are the spec accesses the
// finding implicates; they feed the structural fingerprint and default
// the kernel-space File/Line from the first access's loop coordinate.
func (p *Pass) Report(d Diagnostic, accs ...staticconf.Access) {
	d.Dir = p.Dir
	if d.File == "" && d.Loop != "" {
		if file, line, ok := strings.Cut(d.Loop, ":"); ok {
			if n, err := strconv.Atoi(line); err == nil {
				d.File, d.Line = file, n
			}
		}
	}
	if d.Fingerprint == "" {
		d.Fingerprint = fingerprint(d.Rule, d.Ctor, d.Kernel, accs)
	}
	p.diags = append(p.diags, d)
	p.c.findings.Inc()
}

// Position resolves a token.Pos through the package's file set.
func (p *Pass) Position(pos token.Pos) Position {
	tp := p.Pkg.Fset().Position(pos)
	return Position{File: filepath.ToSlash(tp.Filename), Line: tp.Line, Column: tp.Column, Offset: tp.Offset}
}

// CtorPos anchors a kernel at its constructor's name.
func (p *Pass) CtorPos(k *Kernel) Position {
	if k.Decl != nil {
		return p.Position(k.Decl.Name.Pos())
	}
	return Position{}
}

// Config tunes a lint run. Every run lints against the default L1
// (mem.L1Default) with the rule set of Analyzers().
type Config struct {
	// CacheDir enables the incremental cache when non-empty: directory
	// results are keyed on file content hashes and reused verbatim when
	// nothing in the package changed.
	CacheDir string
	// Jobs caps concurrent directory analyses; values < 2 run serially.
	// Output is byte-identical at any setting.
	Jobs int
	// Obs receives the run's counters; nil allocates a private registry.
	Obs *obs.Registry
}

// KernelSummary is the -v accounting for one linted kernel.
type KernelSummary struct {
	Label    string `json:"label"`
	Kernel   string `json:"kernel"`
	Findings int    `json:"findings"`
}

// DirResult is the outcome for one package directory — the unit the
// incremental cache stores.
type DirResult struct {
	Dir     string            `json:"dir"`
	Kernels []KernelSummary   `json:"kernels,omitempty"`
	Diags   []Diagnostic      `json:"findings"`
	Skipped map[string]string `json:"skipped,omitempty"`
	LoadErr string            `json:"load_error,omitempty"` // not a lintable package
}

// Result is a full lint run.
type Result struct {
	Kernels int
	Dirs    []DirResult
	// Diags is the flattened, deterministically sorted diagnostic list
	// (file, byte offset, rule) across all directories.
	Diags []Diagnostic
}

type counters struct {
	dirs, cacheHits, cacheMisses, extracted, findings *obs.Counter
}

func newCounters(reg *obs.Registry) *counters {
	return &counters{
		dirs:        reg.Counter("conflint.dirs"),
		cacheHits:   reg.Counter("conflint.cache_hits"),
		cacheMisses: reg.Counter("conflint.cache_misses"),
		extracted:   reg.Counter("conflint.kernels_extracted"),
		findings:    reg.Counter("conflint.findings"),
	}
}

// Run lints the given package directories and returns the merged,
// sorted result. Directories that are not parsable Go packages are
// recorded with a LoadErr and otherwise skipped, so linting a whole
// module tree is cheap.
func Run(dirs []string, cfg Config) (*Result, error) {
	reg := cfg.Obs
	if reg == nil {
		reg = obs.New()
	}
	c := newCounters(reg)

	results := make([]DirResult, len(dirs))
	errs := make([]error, len(dirs))
	jobs := cfg.Jobs
	if jobs < 1 {
		jobs = 1
	}
	if jobs > len(dirs) {
		jobs = len(dirs)
	}
	if jobs <= 1 {
		for i, dir := range dirs {
			results[i], errs[i] = lintDir(dir, cfg, c)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < jobs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					results[i], errs[i] = lintDir(dirs[i], cfg, c)
				}
			}()
		}
		for i := range dirs {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Dirs: results}
	for _, dr := range results {
		res.Kernels += len(dr.Kernels)
		res.Diags = append(res.Diags, dr.Diags...)
	}
	sortDiags(res.Diags)
	return res, nil
}

// sortDiags orders diagnostics deterministically: Go file, byte
// offset, rule, then the remaining identity fields as tiebreaks.
func sortDiags(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		switch {
		case a.Pos.File != b.Pos.File:
			return a.Pos.File < b.Pos.File
		case a.Pos.Offset != b.Pos.Offset:
			return a.Pos.Offset < b.Pos.Offset
		case a.Rule != b.Rule:
			return a.Rule < b.Rule
		case a.Ctor != b.Ctor:
			return a.Ctor < b.Ctor
		case a.Array != b.Array:
			return a.Array < b.Array
		case a.Loop != b.Loop:
			return a.Loop < b.Loop
		default:
			return a.Detail < b.Detail
		}
	})
}

// lintDir analyzes one directory, consulting the incremental cache
// first. Cache entries are keyed on the content hashes of the package's
// Go files, so any edit (including to suppression directives)
// invalidates the entry and a hit is byte-equivalent to a cold run.
func lintDir(dir string, cfg Config, c *counters) (DirResult, error) {
	c.dirs.Inc()
	geom, analyzers := mem.L1Default(), Analyzers()
	key := ""
	if cfg.CacheDir != "" {
		var err error
		key, err = dirKey(dir, geom, analyzers)
		if err == nil {
			if dr, ok := cacheGet(cfg.CacheDir, key); ok {
				c.cacheHits.Inc()
				return dr, nil
			}
		}
		c.cacheMisses.Inc()
	}

	dr := DirResult{Dir: dir, Skipped: map[string]string{}}
	set, err := specgen.LintLoad(dir, geom)
	if err != nil {
		// Not a parsable Go package (or empty): nothing to lint.
		dr.LoadErr = err.Error()
		dr.Skipped = nil
	} else {
		pass := &Pass{Dir: dir, Pkg: set.Pkg, Geom: geom, c: c}
		dr.Skipped = set.Skipped
		for i := range set.Kernels {
			lk := set.Kernels[i]
			c.extracted.Inc()
			k := &Kernel{Ctor: lk.Ctor, Variant: lk.Variant, Label: lk.Label, Ex: lk.Ex, Decl: set.Pkg.FuncDecl(lk.Ctor)}
			if lk.Ex.Spec != nil {
				if ar, err := analytic.Analyze(lk.Ex.Spec, geom, analytic.Options{}); err == nil {
					k.PredCF, k.Static = ar.PredictedCF, ar
				}
			}
			pass.Kernels = append(pass.Kernels, k)
		}
		perKernel := map[string]int{}
		for _, a := range analyzers {
			before := len(pass.diags)
			if err := a.Run(pass); err != nil {
				return DirResult{}, fmt.Errorf("conflint: %s: %s: %w", dir, a.Name, err)
			}
			for _, d := range pass.diags[before:] {
				perKernel[d.Ctor]++
			}
		}
		dr.Diags = applySuppressions(pass)
		for _, k := range pass.Kernels {
			dr.Kernels = append(dr.Kernels, KernelSummary{Label: k.Label, Kernel: k.Ex.Kernel, Findings: perKernel[k.Label]})
		}
	}
	sortDiags(dr.Diags)
	if dr.Diags == nil {
		dr.Diags = []Diagnostic{}
	}

	if cfg.CacheDir != "" && key != "" {
		cachePut(cfg.CacheDir, key, dr)
	}
	return dr, nil
}

// Expand resolves package arguments to a sorted list of directories,
// handling the dir/... wildcard the way the go tool does (skipping
// testdata, vendor, and hidden directories). Non-recursive arguments
// are kept even when they point into testdata — that is how the lint's
// own fixtures are addressed.
func Expand(args []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, arg := range args {
		root, recursive := strings.CutSuffix(arg, "...")
		if !recursive {
			add(filepath.Clean(arg))
			continue
		}
		if root == "" {
			root = "."
		}
		root = filepath.Clean(root)
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// readFile is a seam for tests; production reads the real tree.
var readFile = os.ReadFile
