package specgen

import (
	"fmt"

	"repro/internal/mem"
)

// LintKernel is one kernel reachable from a niladic package-level
// constructor, extracted for the conflict lint. The pattern checks
// themselves live in internal/conflint; this side only interprets the
// package and synthesizes specs.
type LintKernel struct {
	// Ctor is the constructor function name, Variant the case-study
	// field the kernel came from ("Original"/"Optimized", "" for plain
	// Program constructors). Label is "Ctor" or "Ctor/Variant", matching
	// the labels in lint reports.
	Ctor    string
	Variant string
	Label   string
	Ex      *Extraction
}

// LintSet is everything the lint extracted from one package directory:
// the parsed package (kept for position lookup and source rewrites) and
// its kernels.
type LintSet struct {
	Pkg     *Package
	Kernels []LintKernel
	// Skipped maps package-level functions that were not linted to the
	// reason (parameters required, not a kernel constructor, ...).
	Skipped map[string]string
}

// LintLoad parses the package in dir and extracts every kernel reachable
// from a niladic package-level constructor: each function is interpreted
// with the same machinery as spec extraction, and any Program or
// CaseStudy it returns is synthesized into an affine spec. Functions
// that take parameters or do not build kernels are skipped.
func LintLoad(dir string, g mem.Geometry) (*LintSet, error) {
	p, err := Load(dir)
	if err != nil {
		return nil, err
	}
	set := &LintSet{Pkg: p}
	set.Kernels, set.Skipped = p.LintKernels(g)
	return set, nil
}

// LintKernels interprets every niladic package-level constructor and
// returns the extracted kernels plus the skip reasons for everything
// else.
func (p *Package) LintKernels(g mem.Geometry) ([]LintKernel, map[string]string) {
	var kernels []LintKernel
	skipped := map[string]string{}
	for _, name := range p.Funcs() {
		fd := p.funcs[name]
		if fd.Type.Params != nil && len(fd.Type.Params.List) > 0 {
			skipped[name] = "takes parameters; lint covers niladic constructors"
			continue
		}
		exs, why := p.lintExtract(g, name, 0, 1)
		if why != "" {
			skipped[name] = why
			continue
		}
		kernels = append(kernels, exs...)
	}
	return kernels, skipped
}

// ExtractKernel re-extracts one kernel by constructor and variant, as
// returned in LintKernel. It is the re-scoring hook for source rewrites:
// load the package with an overlay, then extract the same kernel again.
func (p *Package) ExtractKernel(g mem.Geometry, ctor, variant string) (*Extraction, error) {
	return p.ExtractKernelTid(g, ctor, variant, 0, 1)
}

// ExtractKernelTid extracts one kernel's spec as seen by thread tid of
// threads: runThread is interpreted with those concrete arguments, so a
// kernel that partitions work by tid yields the per-thread access spec.
// The false-sharing analyzer compares these across tids.
func (p *Package) ExtractKernelTid(g mem.Geometry, ctor, variant string, tid, threads int) (*Extraction, error) {
	exs, why := p.lintExtract(g, ctor, tid, threads)
	if why != "" {
		return nil, fmt.Errorf("specgen: %s: %s", ctor, why)
	}
	for _, k := range exs {
		if k.Variant == variant {
			return k.Ex, nil
		}
	}
	return nil, fmt.Errorf("specgen: %s has no variant %q", ctor, variant)
}

// lintExtract interprets one niladic constructor and extracts every
// Program it yields, running runThread as thread tid of threads. The
// interpreter is exercised on arbitrary package code here, so a panic is
// downgraded to a skip reason.
func (p *Package) lintExtract(g mem.Geometry, ctor string, tid, threads int) (out []LintKernel, why string) {
	defer func() {
		if r := recover(); r != nil {
			out, why = nil, fmt.Sprintf("interpreter panic: %v", r)
		}
	}()
	in := p.newInterp()
	st, err := in.callCtor(ctor, nil)
	if err != nil {
		return nil, fmt.Sprintf("not a kernel constructor: %v", err)
	}
	if _, isProg := st.fields["runThread"].(*vClosure); isProg {
		ex, err := in.extractFromProgramTid(st, g, ctor, tid, threads)
		if err != nil {
			return nil, err.Error()
		}
		return []LintKernel{{Ctor: ctor, Label: ctor, Ex: ex}}, ""
	}
	for _, part := range []string{"Original", "Optimized"} {
		prog, ok := st.fields[part].(*vStruct)
		if !ok {
			continue
		}
		ex, err := in.extractFromProgramTid(prog, g, ctor, tid, threads)
		if err != nil {
			return nil, err.Error()
		}
		out = append(out, LintKernel{Ctor: ctor, Variant: part, Label: ctor + "/" + part, Ex: ex})
	}
	if len(out) == 0 {
		return nil, "returns neither a Program nor a CaseStudy"
	}
	return out, ""
}
