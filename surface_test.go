package ccprof

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported functions and methods under
// internal/ that no non-test file calls but that stay in product code
// because tests in other packages call them, which a _test.go file of
// their own package could not serve. TestProductSurface fails on any
// other unreached identifier, and on an entry here that product code has
// come to call.
var surfaceAllowlist = map[string]string{
	"(*repro/internal/obs.Histogram).Count":        "pmu's tests read a registry histogram's observation count",
	"(*repro/internal/obs.Snapshot).Deterministic": "core's and experiments' determinism tests compare snapshots without their timings",
	"(*repro/internal/pmu.Sampler).Grow":           "the root BenchmarkBlockStream pre-grows the sample buffer outside the timed loop",
	"(*repro/internal/trace.Recorder).Len":         "the root BenchmarkExactSimulation reports references per op",
	"(*repro/internal/trace.RefBlock).AppendRefs":  "pmu, baseline and core tests and the root benchmarks build blocks from []Ref fixtures",
}

// TestProductSurface keeps test-only code out of product packages. It
// type-checks every non-test package in the checkout (the root module,
// commands, examples and the perfbench module) and flags each exported
// function or method declared under internal/ that no non-test file
// references. Test oracles belong in _test.go files; dead helpers are
// deleted. A method also counts as reached when its type satisfies an
// interface that declares it (fmt.Stringer, trace.Sink, ...), when it is
// an Unwrap() error method (errors.Is and errors.As call it through an
// anonymous interface), or when its type is aliased by this facade.
func TestProductSurface(t *testing.T) {
	flagged := map[string]bool{}
	for _, id := range newSurfaceLoader(t).unreached() {
		flagged[id] = true
		if _, ok := surfaceAllowlist[id]; !ok {
			t.Errorf("%s: exported, but only tests reach it; delete it, move it into a _test.go file, or allowlist it with a reason", id)
		}
	}
	for id := range surfaceAllowlist {
		if !flagged[id] {
			t.Errorf("%s: allowlisted but reached by product code (or gone); drop the entry", id)
		}
	}
}

// surfaceModule is the checkout's module path. The nested perfbench
// module sits at its directory's path under it, so one mapping from
// directory to import path serves both modules.
const surfaceModule = "repro"

// surfaceLoader type-checks the checkout's non-test packages from source
// and the standard library from export data.
type surfaceLoader struct {
	fset *token.FileSet
	dirs map[string]string // import path -> directory
	pkgs map[string]*surfacePkg
	std  types.Importer
}

type surfacePkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

func newSurfaceLoader(t *testing.T) *surfaceLoader {
	t.Helper()
	l := &surfaceLoader{
		fset: token.NewFileSet(),
		dirs: map[string]string{},
		pkgs: map[string]*surfacePkg{},
		std:  importer.Default(),
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path == "." {
			l.dirs[surfaceModule] = path
			return nil
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		l.dirs[surfaceModule+"/"+filepath.ToSlash(path)] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ip := range l.dirs {
		if _, err := l.load(ip); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// Import implements types.Importer: checkout packages from source, the
// rest from the standard library's export data.
func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return l.std.Import(path)
}

// load type-checks the non-test files of the package at import path ip;
// it returns nil for a directory with none.
func (l *surfaceLoader) load(ip string) (*surfacePkg, error) {
	if p, ok := l.pkgs[ip]; ok {
		return p, nil
	}
	l.pkgs[ip] = nil // a directory without Go files stays nil
	bp, err := build.Default.ImportDir(l.dirs[ip], 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, err
	}
	p := &surfacePkg{info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	p.types, err = conf.Check(ip, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[ip] = p
	return p, nil
}

// unreached returns, sorted, the exported functions and methods declared
// under internal/ that no non-test file reaches.
func (l *surfaceLoader) unreached() []string {
	used := map[*types.Func]bool{}
	ifaces := map[string][]*types.Interface{} // method name -> interfaces declaring it
	addIface := func(typ types.Type) {
		it, ok := typ.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var scan func(pkg *types.Package)
	scan = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			scan(imp)
		}
	}
	aliased := map[*types.TypeName]bool{}
	for ip, p := range l.pkgs {
		if p == nil {
			continue
		}
		scan(p.types)
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, tv := range p.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		if ip != surfaceModule {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					aliased[n.Obj()] = true
				}
			}
		}
	}

	internal := surfaceModule + "/internal/"
	var out []string
	for ip, p := range l.pkgs {
		if p == nil || !strings.HasPrefix(ip, internal) {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				if !used[fn] && !reachedMethod(fn, aliased, ifaces) {
					out = append(out, fn.FullName())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// reachedMethod reports whether method fn counts as reached without a
// direct reference.
func reachedMethod(fn *types.Func, aliased map[*types.TypeName]bool, ifaces map[string][]*types.Interface) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	if fn.Name() == "Unwrap" && sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Universe.Lookup("error").Type()) {
		return true
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	if aliased[named.Obj()] {
		return true
	}
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}
