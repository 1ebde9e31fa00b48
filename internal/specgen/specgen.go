package specgen

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/mem"
	"repro/internal/staticconf"
)

// Package is a parsed workload package, ready for extraction runs. It
// holds only syntax; every extraction builds its own environment, so runs
// are independent.
type Package struct {
	fset    *token.FileSet
	files   []*ast.File
	funcs   map[string]*ast.FuncDecl // package-level functions (no methods)
	inits   []*ast.FuncDecl
	decls   []ast.Decl // package-level const/var decls, source order
	structs map[string]*ast.StructType
	imports map[string]string // local name → import path
}

// Load parses the non-test Go files of dir into a Package.
func Load(dir string) (*Package, error) { return LoadOverlay(dir, nil) }

// LoadOverlay is Load with an in-memory overlay: for file base names
// present in overlay, the given contents are parsed instead of the
// on-disk bytes. The conflict lint's pad-fix search uses this to
// re-extract a kernel from a candidate source edit without touching the
// tree. An overlay name not present on disk is ignored.
func LoadOverlay(dir string, overlay map[string][]byte) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("specgen: %w", err)
	}
	p := &Package{
		fset:    token.NewFileSet(),
		funcs:   map[string]*ast.FuncDecl{},
		structs: map[string]*ast.StructType{},
		imports: map[string]string{},
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
	for _, n := range names {
		var src any
		if o, ok := overlay[n]; ok {
			src = o
		}
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, n), src, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("specgen: parse %s: %w", n, err)
		}
		p.files = append(p.files, f)
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			local := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			p.imports[local] = path
		}
		for _, d := range f.Decls {
			switch dd := d.(type) {
			case *ast.FuncDecl:
				if dd.Recv != nil {
					continue // methods are outside the modeled surface
				}
				if dd.Name.Name == "init" {
					p.inits = append(p.inits, dd)
					continue
				}
				p.funcs[dd.Name.Name] = dd
			case *ast.GenDecl:
				switch dd.Tok {
				case token.CONST, token.VAR:
					p.decls = append(p.decls, dd)
				case token.TYPE:
					for _, s := range dd.Specs {
						ts := s.(*ast.TypeSpec)
						if st, ok := ts.Type.(*ast.StructType); ok {
							p.structs[ts.Name.Name] = st
						}
					}
				}
			}
		}
	}
	if len(p.files) == 0 {
		return nil, fmt.Errorf("specgen: no Go files in %s", dir)
	}
	return p, nil
}

func (p *Package) structType(name string) *ast.StructType { return p.structs[name] }

// Fset returns the file set positions of the parsed files resolve
// against; Files the parsed files themselves. The conflict lint uses
// both to anchor diagnostics and suggested fixes at real source
// positions.
func (p *Package) Fset() *token.FileSet { return p.fset }

// Files returns the parsed files of the package, in file-name order.
func (p *Package) Files() []*ast.File { return p.files }

// FuncDecl returns the declaration of the named package-level function,
// or nil.
func (p *Package) FuncDecl(name string) *ast.FuncDecl { return p.funcs[name] }

// Funcs returns the names of the package-level functions, sorted.
func (p *Package) Funcs() []string {
	out := make([]string, 0, len(p.funcs))
	for n := range p.funcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// workloadsModule is the module whose internal/workloads WorkloadsDir
// finds.
const workloadsModule = "repro"

// WorkloadsDir locates internal/workloads under the nearest enclosing
// root of module workloadsModule, so extraction works from any working
// directory inside the checkout, the nested perfbench module included. A
// go.mod of another module on the way up is skipped: its
// internal/workloads is not the one the extractor models.
func WorkloadsDir() (string, error) {
	start, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for dir := start; ; {
		if modulePath(filepath.Join(dir, "go.mod")) == workloadsModule {
			return filepath.Join(dir, "internal", "workloads"), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("specgen: no go.mod of module %s above %s", workloadsModule, start)
		}
		dir = parent
	}
}

// modulePath returns the module path the go.mod file at path declares,
// or "" when there is no such file or it declares none.
func modulePath(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

// newInterp builds a fresh environment: package functions as closures,
// package consts/vars evaluated in source order, init functions run (they
// populate the workload registry).
func (p *Package) newInterp() *interp {
	in := &interp{pkg: p, fuel: defaultFuel}
	in.root = newScope(nil)
	for name, fd := range p.funcs {
		in.root.define(name, &vClosure{fn: fd.Type, body: fd.Body, env: in.root, name: name})
	}
	for _, d := range p.decls {
		in.evalPkgDecl(d.(*ast.GenDecl))
	}
	for _, fd := range p.inits {
		if err := in.execBlock(fd.Body.List, newScope(in.root)); err != nil {
			in.note("init failed: %v", err)
		}
	}
	return in
}

// evalPkgDecl evaluates one package-level const/var declaration, with
// basic iota support for const blocks.
func (in *interp) evalPkgDecl(d *ast.GenDecl) {
	var lastValues []ast.Expr
	for i, s := range d.Specs {
		vs, ok := s.(*ast.ValueSpec)
		if !ok {
			continue
		}
		values := vs.Values
		if d.Tok == token.CONST {
			if len(values) == 0 {
				values = lastValues
			} else {
				lastValues = values
			}
		}
		env := in.root
		if d.Tok == token.CONST {
			env = newScope(in.root)
			env.define("iota", vInt(int64(i)))
		}
		for j, name := range vs.Names {
			var v value
			switch {
			case j < len(values):
				ev, err := in.eval(values[j], env)
				if err != nil {
					in.note("package-level %s: %v", name.Name, err)
					ev = unknown("failed package-level initializer")
				}
				v = ev
			case vs.Type != nil:
				v = in.zeroValue(vs.Type, env)
			default:
				v = unknown("uninitialized package variable")
			}
			in.root.define(name.Name, v)
		}
	}
}

// Block is one arena allocation of the extracted program, used by the
// tests' drift lint and trace verifier to clip footprints to real extents.
type Block struct {
	Name  string
	Start uint64
	Size  uint64
}

// Site is one reference site the extractor could not analyze, with the
// first cause of the taint.
type Site struct {
	IP    string // "file:line" of the emitting instruction
	Loop  string // innermost enclosing builder loop, "" at top level
	Write bool
	Why   string
}

// Extraction is the result of analyzing one Program variant.
type Extraction struct {
	Kernel string
	// Spec is the synthesized affine specification; nil when no
	// reference site was analyzable.
	Spec *staticconf.Spec
	// Unanalyzable lists the reference sites whose addresses are not
	// affine in the induction variables, with reasons.
	Unanalyzable []Site
	// Blocks lists the arena allocations, in allocation order.
	Blocks []Block
	// Events and AffineEvents count raw extraction events before
	// synthesis (one event per site per enclosing concrete iteration).
	Events       int
	AffineEvents int
	Notes        []string
}

// CaseStudyExtraction pairs the extractions of a case study's variants.
type CaseStudyExtraction struct {
	Original  *Extraction
	Optimized *Extraction
}

// ExtractProgram runs the constructor ctor with the given concrete
// arguments and synthesizes the spec of the Program it returns.
func (p *Package) ExtractProgram(g mem.Geometry, ctor string, args ...int) (*Extraction, error) {
	in := p.newInterp()
	prog, err := in.callCtor(ctor, args)
	if err != nil {
		return nil, err
	}
	return in.extractFromProgram(prog, g, ctor)
}

// ExtractCaseStudy runs a case-study constructor and synthesizes specs for
// both variants.
func (p *Package) ExtractCaseStudy(g mem.Geometry, ctor string, args ...int) (*CaseStudyExtraction, error) {
	in := p.newInterp()
	cs, err := in.callCtor(ctor, args)
	if err != nil {
		return nil, err
	}
	out := &CaseStudyExtraction{}
	for _, part := range []struct {
		field string
		dst   **Extraction
	}{{"Original", &out.Original}, {"Optimized", &out.Optimized}} {
		prog, ok := cs.fields[part.field].(*vStruct)
		if !ok {
			return nil, fmt.Errorf("specgen: %s: case study field %s is not a Program", ctor, part.field)
		}
		ex, err := in.extractFromProgram(prog, g, ctor)
		if err != nil {
			return nil, fmt.Errorf("specgen: %s %s: %w", ctor, part.field, err)
		}
		*part.dst = ex
	}
	return out, nil
}

func (in *interp) callCtor(ctor string, args []int) (*vStruct, error) {
	c, ok := in.root.lookup(ctor)
	if !ok {
		return nil, fmt.Errorf("specgen: no function %s in package", ctor)
	}
	cl, ok := c.v.(*vClosure)
	if !ok {
		return nil, fmt.Errorf("specgen: %s is not a function", ctor)
	}
	vargs := make([]value, 0, len(args))
	for _, a := range args {
		vargs = append(vargs, vInt(int64(a)))
	}
	res, err := in.callClosure(cl, vargs)
	if err != nil {
		return nil, fmt.Errorf("specgen: %s: %w", ctor, err)
	}
	st, ok := res.(*vStruct)
	if !ok {
		return nil, fmt.Errorf("specgen: %s returned %T, want a struct value", ctor, res)
	}
	return st, nil
}

func (in *interp) extractFromProgram(prog *vStruct, g mem.Geometry, ctor string) (*Extraction, error) {
	return in.extractFromProgramTid(prog, g, ctor, 0, 1)
}

// extractFromProgramTid interprets runThread as thread tid of threads —
// the per-thread view a false-sharing check compares across tids.
func (in *interp) extractFromProgramTid(prog *vStruct, g mem.Geometry, ctor string, tid, threads int) (*Extraction, error) {
	name := ctor
	if s, ok := prog.fields["Name"].(vStr); ok {
		name = string(s)
	}
	arena, ok := prog.fields["Arena"].(*vArena)
	if !ok {
		return nil, fmt.Errorf("specgen: %s: Program.Arena was not tracked", name)
	}
	rt, ok := prog.fields["runThread"].(*vClosure)
	if !ok {
		return nil, fmt.Errorf("specgen: %s: Program.runThread was not tracked", name)
	}
	in.events = nil
	notesBefore := len(in.notes)
	// RunThread's arguments. The workloads package's runThread also takes
	// the compute flag before the sink, which RunThread sets for a
	// sequential run; packages that declare their own Program (the lint
	// fixtures) use the three-parameter form.
	args := []value{vInt(int64(tid)), vInt(int64(threads))}
	if rt.arity() == 4 {
		args = append(args, vBool(threads == 1))
	}
	if _, err := in.callClosure(rt, append(args, vSink{})); err != nil {
		return nil, fmt.Errorf("specgen: %s: runThread: %w", name, err)
	}
	ex := synthesize(name, in.events, arena, g)
	ex.Notes = append(ex.Notes, in.notes[notesBefore:]...)
	return ex, nil
}
