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
	"reflect"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names what TestProductSurface would flag but stays in
// product code, each with the reason. Exported functions and methods stay
// when tests in other packages call them, which a _test.go file of their
// own package could not serve; fields stay when a test oracle or a
// planned product reader needs them. The test fails on any other finding,
// and on an entry here that the rules no longer flag.
var surfaceAllowlist = map[string]string{
	"(*repro/internal/obs.Histogram).Count":        "pmu's tests read a registry histogram's observation count",
	"(*repro/internal/obs.Snapshot).Deterministic": "core's and experiments' determinism tests compare snapshots without their timings",
	"(*repro/internal/pmu.Sampler).Grow":           "the root BenchmarkBlockStream pre-grows the sample buffer outside the timed loop",
	"(*repro/internal/trace.Recorder).Len":         "the root BenchmarkExactSimulation reports references per op",
	"(*repro/internal/trace.RefBlock).AppendRefs":  "pmu, baseline and core tests and the root benchmarks build blocks from []Ref fixtures",

	// The enumerating analyzer's report and options: analytic's tests
	// compare the closed form against it, and perfbench's staticconf.eval
	// rung still runs it. Both move into tests once that rung retires.
	"repro/internal/staticconf.AccessReport.Access":          staticconfOracle,
	"repro/internal/staticconf.AccessReport.Camping":         staticconfOracle,
	"repro/internal/staticconf.AccessReport.PowerOfTwo":      staticconfOracle,
	"repro/internal/staticconf.AccessReport.SetsTouched":     staticconfOracle,
	"repro/internal/staticconf.AccessReport.StrideSets":      staticconfOracle,
	"repro/internal/staticconf.AccessReport.TotalRefs":       staticconfOracle,
	"repro/internal/staticconf.AccessReport.WindowTruncated": staticconfOracle,
	"repro/internal/staticconf.Report.Accesses":              staticconfOracle,
	"repro/internal/staticconf.Report.Geom":                  staticconfOracle,
	"repro/internal/staticconf.Report.Kernel":                staticconfOracle,
	"repro/internal/staticconf.Report.Reason":                staticconfOracle,
	"repro/internal/staticconf.Options.CapacityFrac":         staticconfOracle,
	"repro/internal/staticconf.Options.MinConflictShare":     staticconfOracle,
	"repro/internal/staticconf.Options.WindowRefCap":         staticconfOracle,

	"repro/internal/specgen.Extraction.Blocks":       specgenOracle,
	"repro/internal/specgen.Extraction.Events":       specgenOracle,
	"repro/internal/specgen.Extraction.AffineEvents": specgenOracle,
	"repro/internal/specgen.Extraction.Notes":        specgenOracle,
	"repro/internal/specgen.Block.Name":              specgenOracle,
	"repro/internal/specgen.Block.Size":              specgenOracle,
	"repro/internal/specgen.Block.Start":             specgenOracle,

	"repro/internal/cfg.Loop.Reducible":                     "cfg's irreducible-loop test and the natural-loop oracle read it; no other output of FindLoops shows reducibility",
	"repro/internal/experiments.FaultsRow.ExecRetries":      "for each fault rate, faults_test checks that the sweep's recovery matches the fault plan",
	"repro/internal/experiments.FaultsRow.ExecPanics":       "for each fault rate, faults_test checks that the sweep's recovery matches the fault plan",
	"repro/internal/experiments.FaultsRow.ExecRestored":     "for each fault rate, faults_test checks that the sweep's recovery matches the fault plan",
	"repro/internal/experiments.Table2Row.MeasuredOverhead": "the measured overhead beside the modeled one, computed for Table 2's timing-only output, which does not print it yet",
	"repro/internal/advisor.Options.StaticKeep":             "the cascade contract test and the cascade benchmark run at keep 2",
	"repro/internal/advisor.Options.Workers":                "the -j1/-j8 determinism tests set it per call",
	"repro/internal/conflint.Config.Obs":                    "tests give each lint run its own registry: the seam per-run observability is to generalise",
	"repro/internal/faultinj.Plan.CorruptMask":              "analyses.golden's bit-40 corruption row needs it",
	"repro/internal/report.DegradedNote.Restored":           "printed, and kept zero so that resumed reports stay byte-identical",
}

const (
	staticconfOracle = "the enumerating analyzer's output or option, which the analytic tests and perfbench's staticconf.eval rung use"
	specgenOracle    = "the drift-lint and trace-verifier test oracles read the extracted blocks and events"
)

// surfaceRules says, per kind of finding, what makes it one and how to
// mend it.
var surfaceRules = map[string]string{
	"func":  "exported, but only tests reach it; delete it, move it into a _test.go file, or allowlist it with a reason",
	"decl":  "exported, but no non-test file references it; delete it or move it into a _test.go file",
	"field": "non-test code writes this field but never reads it; delete it with the code that fills it, or allowlist it with a reason",
	"knob":  "other packages build this struct, but no product code outside its own package sets this field; make it a constant, or allowlist it with a reason",
}

// TestProductSurface keeps test-only code and unread state out of product
// packages. It type-checks every non-test package in the checkout (the
// root module, commands, examples and the perfbench module) and flags,
// under internal/:
//
//   - func: an exported function or method that no non-test file
//     references. A method also counts as reached when its type satisfies
//     an interface that declares it (fmt.Stringer, trace.Sink, ...), when
//     it is an Unwrap() error method (errors.Is and errors.As call it
//     through an anonymous interface), or when its type is aliased by this
//     facade.
//   - decl: an exported package-level type, constant or variable that no
//     non-test file references.
//   - field (rule A): a struct field that non-test code writes but never
//     reads.
//   - knob (rule B): an exported field of a struct that another package
//     builds with a composite literal, when product code reads it but no
//     product code outside its own package sets it. Such a field has one
//     product value.
//
// fieldScan says what counts as a read and a write. Types the facade
// aliases are public API, so their fields are exempt as their methods are.
func TestProductSurface(t *testing.T) {
	found := newSurfaceLoader(t, ".").findings()
	ids := make([]string, 0, len(found))
	for id := range found {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, ok := surfaceAllowlist[id]; !ok {
			t.Errorf("%s (%s): %s", id, found[id], surfaceRules[found[id]])
		}
	}
	for id := range surfaceAllowlist {
		if _, ok := found[id]; !ok {
			t.Errorf("%s: allowlisted but no longer flagged (now used, or gone); drop the entry", id)
		}
	}
}

// TestProductSurfaceFixture pins what each rule flags on a small tree of
// packages under testdata/surface, including the cases where a naive
// reading of "write" and "read" goes wrong.
func TestProductSurfaceFixture(t *testing.T) {
	got := newSurfaceLoader(t, filepath.Join("testdata", "surface")).findings()
	want := map[string]string{
		"repro/internal/opts.Options.Depth":  "knob",  // set only by its own package's defaults
		"repro/internal/opts.Pool.made":      "field", // unread field of a generic struct
		"repro/internal/opts.Row.Scratch":    "field", // json:"-" and read by nothing
		"repro/internal/opts.Trail.log":      "field", // only ever self-appended
		"repro/internal/opts.Unused":         "decl",
		"(repro/internal/opts.Options).Dead": "func",
	}
	for id, kind := range got {
		if want[id] != kind {
			t.Errorf("flagged %s (%s), want it unflagged", id, kind)
		}
	}
	for id, kind := range want {
		if got[id] != kind {
			t.Errorf("did not flag %s (%s)", id, kind)
		}
	}
}

// findings returns every identifier the guard flags, mapped to its kind
// (a key of surfaceRules).
func (l *surfaceLoader) findings() map[string]string {
	found := map[string]string{}
	for _, id := range l.unreached() {
		found[id] = "func"
	}
	for _, id := range l.unusedDecls() {
		found[id] = "decl"
	}
	uses := l.scanFields()
	for v, f := range l.fields() {
		u := uses.fields[v]
		switch {
		case u == nil:
		case u.written && !u.read:
			found[f.id] = "field"
		case u.read && !u.setOutside && v.Exported() && uses.built[f.owner]:
			found[f.id] = "knob"
		}
	}
	return found
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

// newSurfaceLoader loads every non-test package in the tree at root,
// which it takes to be the root of module surfaceModule.
func newSurfaceLoader(t *testing.T, root string) *surfaceLoader {
	t.Helper()
	l := &surfaceLoader{
		fset: token.NewFileSet(),
		dirs: map[string]string{},
		pkgs: map[string]*surfacePkg{},
		std:  importer.Default(),
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path == root {
			l.dirs[surfaceModule] = path
			return nil
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		l.dirs[surfaceModule+"/"+filepath.ToSlash(rel)] = path
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
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
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
	for _, p := range l.pkgs {
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
	}
	aliased := l.aliased()

	var out []string
	for _, p := range l.internal() {
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

// internal returns the loaded packages under internal/, the ones the
// guard checks.
func (l *surfaceLoader) internal() []*surfacePkg {
	var out []*surfacePkg
	for ip, p := range l.pkgs {
		if p != nil && strings.HasPrefix(ip, surfaceModule+"/internal/") {
			out = append(out, p)
		}
	}
	return out
}

// aliased returns the named types the facade (the module's root package)
// re-exports under an alias: public API, exempt from the guard.
func (l *surfaceLoader) aliased() map[*types.TypeName]bool {
	aliased := map[*types.TypeName]bool{}
	p := l.pkgs[surfaceModule]
	if p == nil {
		return aliased
	}
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				aliased[n.Obj()] = true
			}
		}
	}
	return aliased
}

// unusedDecls returns, sorted, the exported package-level types,
// constants and variables under internal/ that no non-test file
// references. A method's receiver does not count as a reference to its
// type.
func (l *surfaceLoader) unusedDecls() []string {
	used := map[types.Object]bool{}
	for _, p := range l.pkgs {
		if p == nil {
			continue
		}
		recv := map[*ast.Ident]bool{}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range p.info.Uses {
			if !recv[id] {
				used[obj] = true
			}
		}
	}
	var out []string
	for _, p := range l.internal() {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if _, fn := obj.(*types.Func); fn || !obj.Exported() || used[obj] {
				continue
			}
			out = append(out, obj.Pkg().Path()+"."+name)
		}
	}
	sort.Strings(out)
	return out
}

// declaredField is a struct field the field rules check.
type declaredField struct {
	id    string          // package path, type name and field name
	owner *types.TypeName // the struct type declaring it
}

// fields returns the named fields of the struct types defined under
// internal/, at package level or in a function, except the fields of
// types the facade aliases. Fields of anonymous struct types are left
// out: two identical anonymous types declare distinct field objects, so
// uses of one would not count for the other.
func (l *surfaceLoader) fields() map[*types.Var]declaredField {
	aliased := l.aliased()
	out := map[*types.Var]declaredField{}
	for _, p := range l.internal() {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Assign.IsValid() {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				tn := p.info.Defs[ts.Name].(*types.TypeName)
				if !ok || aliased[tn] {
					return true
				}
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						if name.Name != "_" {
							out[p.info.Defs[name].(*types.Var)] = declaredField{p.types.Path() + "." + ts.Name.Name + "." + name.Name, tn}
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// fieldUse is how non-test code uses one field.
type fieldUse struct {
	read, written bool
	setOutside    bool // written outside the declaring package, or by a decoder
}

// fieldScan classifies every use of a struct field in non-test code.
//
// Writes are assignment and ++/-- targets, composite-literal elements
// (keyed or positional), and the operand of x.f = append(x.f, ...). A
// write into a field's own storage writes the field too: x.f[i] = v for
// an array x.f, x.f.g = v for a struct-valued x.f. Slicing an array field
// (x.f[:]) hands out its storage, so it is both a write and a read. Every
// other use is a read, among them reaching a pointer, slice or map field
// to write through it (x.p.v = 1), &x.f, and a method call on the field.
//
// Reflection: a value passed to an interface-typed parameter may be
// encoded, so every exported field reachable from its type (through
// pointers, slices, arrays, maps and nested structs) counts as read,
// except those tagged json:"-"; for a callee in fmt, every reachable
// field counts. A pointer passed that way may be decoded into, so the
// fields it reaches also count as set from outside the program.
//
// A field of an instantiated generic type counts as its origin's field.
type fieldScan struct {
	fields map[*types.Var]*fieldUse
	built  map[*types.TypeName]bool // structs a package other than their own builds with a composite literal
}

func (l *surfaceLoader) scanFields() *fieldScan {
	s := &fieldScan{fields: map[*types.Var]*fieldUse{}, built: map[*types.TypeName]bool{}}
	for _, p := range l.pkgs {
		if p == nil {
			continue
		}
		for _, f := range p.files {
			s.file(p.types, p.info, f)
		}
	}
	return s
}

func (s *fieldScan) use(v *types.Var) *fieldUse {
	v = v.Origin()
	u := s.fields[v]
	if u == nil {
		u = &fieldUse{}
		s.fields[v] = u
	}
	return u
}

// write records a write of v by code in pkg; a nil pkg is a decoder.
func (s *fieldScan) write(pkg *types.Package, v *types.Var) {
	u := s.use(v)
	u.written = true
	if pkg == nil || v.Origin().Pkg() != pkg {
		u.setOutside = true
	}
}

func (s *fieldScan) file(pkg *types.Package, info *types.Info, f *ast.File) {
	// stores maps the field selectors that a statement stores into, as
	// against reads from.
	stores := map[*ast.SelectorExpr]bool{}
	// storage calls mark on each field selector whose storage e names:
	// the field of a selector, and, while the field lives inside its
	// base's own value (a struct or an array, not behind a pointer), the
	// base's field as well.
	var storage func(e ast.Expr, mark func(*ast.SelectorExpr, *types.Var))
	storage = func(e ast.Expr, mark func(*ast.SelectorExpr, *types.Var)) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			sel := info.Selections[e]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			mark(e, sel.Obj().(*types.Var))
			if !isPointer(info.TypeOf(e.X)) {
				storage(e.X, mark)
			}
		case *ast.IndexExpr:
			if isArray(info.TypeOf(e.X)) {
				storage(e.X, mark)
			}
		}
	}
	store := func(e *ast.SelectorExpr, _ *types.Var) { stores[e] = true }
	writeNow := func(_ *ast.SelectorExpr, v *types.Var) { s.write(pkg, v) }
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				break
			}
			for i, lhs := range n.Lhs {
				storage(lhs, store)
				if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
					if arg := selfAppend(info, lhs, n.Rhs[i]); arg != nil {
						storage(arg, store)
					}
				}
			}
		case *ast.IncDecStmt:
			storage(n.X, store)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if e != nil {
						storage(e, store)
					}
				}
			}
		case *ast.SliceExpr:
			if isArray(info.TypeOf(n.X)) {
				storage(n.X, writeNow)
			}
		case *ast.CompositeLit:
			s.literal(pkg, info, n)
		case *ast.CallExpr:
			s.reflective(info, n)
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil {
				break // a qualified identifier
			}
			s.embedded(sel)
			if sel.Kind() != types.FieldVal {
				break
			}
			if v := sel.Obj().(*types.Var); stores[n] {
				s.write(pkg, v)
			} else {
				s.use(v).read = true
			}
		}
		return true
	})
}

// selfAppend returns the first argument of rhs when rhs is
// append(lhs, ...) and lhs is a field selector.
func selfAppend(info *types.Info, lhs, rhs ast.Expr) ast.Expr {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 || !info.Types[call.Fun].IsBuiltin() {
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
		return nil
	}
	if _, ok := ast.Unparen(lhs).(*ast.SelectorExpr); !ok || types.ExprString(lhs) != types.ExprString(call.Args[0]) {
		return nil
	}
	return call.Args[0]
}

// embedded marks as read the embedded fields a promoted selection passes
// through.
func (s *fieldScan) embedded(sel *types.Selection) {
	t := sel.Recv()
	for _, i := range sel.Index()[:len(sel.Index())-1] {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		f := t.Underlying().(*types.Struct).Field(i)
		s.use(f).read = true
		t = f.Type()
	}
}

// literal records the fields a composite literal of struct type sets.
func (s *fieldScan) literal(pkg *types.Package, info *types.Info, lit *ast.CompositeLit) {
	t := info.TypeOf(lit)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem() // an elided &T in a nested literal
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	if named, ok := types.Unalias(t).(*types.Named); ok && named.Obj().Pkg() != pkg {
		s.built[named.Origin().Obj()] = true
	}
	for i, elt := range lit.Elts {
		v := st.Field(i)
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			v = info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
		}
		s.write(pkg, v)
	}
}

// reflective applies the reflection rule to the arguments of call.
func (s *fieldScan) reflective(info *types.Info, call *ast.CallExpr) {
	tv := info.Types[call.Fun]
	if tv.IsType() || tv.IsBuiltin() || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	all := false
	var callee *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee = fun
	case *ast.SelectorExpr:
		callee = fun.Sel
	}
	if obj := info.Uses[callee]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		all = true
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type()
			if !call.Ellipsis.IsValid() {
				pt = pt.(*types.Slice).Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		at := info.TypeOf(arg)
		if pt == nil || at == nil || !types.IsInterface(pt) || types.IsInterface(at) {
			continue
		}
		s.reflect(at, all, isPointer(at), map[*types.Named]bool{})
	}
}

// reflect marks the fields an encoder (or, with all, fmt) reaches from a
// value of type t as read, and with decoded as set from outside.
func (s *fieldScan) reflect(t types.Type, all, decoded bool, seen map[*types.Named]bool) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if !seen[t] {
			seen[t] = true
			s.reflect(t.Underlying(), all, decoded, seen)
		}
	case *types.Pointer:
		s.reflect(t.Elem(), all, decoded, seen)
	case *types.Slice:
		s.reflect(t.Elem(), all, decoded, seen)
	case *types.Array:
		s.reflect(t.Elem(), all, decoded, seen)
	case *types.Map:
		s.reflect(t.Key(), all, decoded, seen)
		s.reflect(t.Elem(), all, decoded, seen)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			f := t.Field(i)
			if !all && (!f.Exported() && !f.Embedded() || reflect.StructTag(t.Tag(i)).Get("json") == "-") {
				continue
			}
			s.use(f).read = true
			if decoded {
				s.write(nil, f)
			}
			s.reflect(f.Type(), all, decoded, seen)
		}
	}
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

func isArray(t types.Type) bool {
	_, ok := t.Underlying().(*types.Array)
	return ok
}
