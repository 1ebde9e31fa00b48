package conflint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analytic"
	"repro/internal/specgen"
)

// PadFix derives a concrete row-pad edit for kernels the analytic model
// predicts to conflict, verifies the edit against the same model by
// re-extracting the patched source through a specgen overlay,
// and attaches the edit as a suggested fix. A padfix diagnostic is only
// emitted when the re-scored spec analyzes clean AND its predicted
// contribution factor drops below the medium-severity threshold — an
// unverified pad is worse than no suggestion.
var PadFix = &Analyzer{
	Name: RulePadFix,
	Doc:  "a verified row-pad edit clears the predicted conflict; carries the edit as a suggested fix",
	Run:  runPadFix,
}

// padCFThreshold is the predicted-CF bar a patched layout must clear:
// the medium-severity band edge, matching the analyzers' verdict rule.
const padCFThreshold = 0.25

// allocSite is one arena allocation call in the package source whose
// row-pad argument is an editable integer literal.
type allocSite struct {
	array  string
	call   *ast.CallExpr
	padLit *ast.BasicLit // the rowPad argument
	elem   uint64        // element size when literal, else 0
}

// allocSitesFor finds the allocation calls for one array of one kernel.
// Calls inside the kernel's own constructor win (two constructors may
// reuse an array name, as the lint fixtures do); otherwise a unique
// package-wide match is accepted, covering constructors that allocate
// through a helper. Ambiguous names yield nil.
func allocSitesFor(p *Pass, k *Kernel, array string) []allocSite {
	if k.Decl != nil {
		if sites := allocCalls(k.Decl.Body, array); len(sites) > 0 {
			return sites
		}
	}
	var all []allocSite
	for _, f := range p.Pkg.Files() {
		all = append(all, allocCalls(f, array)...)
	}
	if len(all) == 1 {
		return all
	}
	return nil
}

// allocCalls walks one AST subtree for alloc.NewMatrix2D/NewMatrix3D
// calls whose name argument is the given string literal and whose
// row-pad argument is an integer literal.
func allocCalls(root ast.Node, array string) []allocSite {
	if root == nil {
		return nil
	}
	var out []allocSite
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var padIdx, elemIdx int
		switch calleeName(call) {
		case "NewMatrix2D": // (arena, name, rows, cols, elem, rowPad)
			padIdx, elemIdx = 5, 4
		case "NewMatrix3D": // (arena, name, ni, nj, nk, elem, rowPad, planePad)
			padIdx, elemIdx = 6, 5
		default:
			return true
		}
		if len(call.Args) <= padIdx {
			return true
		}
		lit, ok := call.Args[1].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		if s, err := strconv.Unquote(lit.Value); err != nil || s != array {
			return true
		}
		pad, ok := call.Args[padIdx].(*ast.BasicLit)
		if !ok || pad.Kind != token.INT {
			return true
		}
		site := allocSite{array: array, call: call, padLit: pad}
		if el, ok := call.Args[elemIdx].(*ast.BasicLit); ok && el.Kind == token.INT {
			if v, err := strconv.ParseUint(el.Value, 0, 64); err == nil {
				site.elem = v
			}
		}
		out = append(out, site)
		return true
	})
	return out
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

func runPadFix(p *Pass) error {
	for _, k := range p.Kernels {
		conflicted := (k.Static != nil && k.Static.Conflict) || k.PredCF >= padCFThreshold
		if !conflicted || k.Ex.Spec == nil {
			continue
		}
		// Editable pad sites for every array the spec touches; kernels
		// whose layout is not expressed as literal pads are skipped.
		var sites []allocSite
		seen := map[string]bool{}
		for _, a := range k.Ex.Spec.Accesses {
			if seen[a.Array] {
				continue
			}
			seen[a.Array] = true
			sites = append(sites, allocSitesFor(p, k, a.Array)...)
		}
		if len(sites) == 0 {
			continue
		}
		sort.Slice(sites, func(i, j int) bool { return sites[i].padLit.Pos() < sites[j].padLit.Pos() })

		pad, after, ok := searchPad(p, k, sites)
		if !ok {
			continue
		}
		var arrays []string
		var edits []TextEdit
		for _, s := range sites {
			arrays = append(arrays, s.array)
			pos := p.Position(s.padLit.Pos())
			edits = append(edits, TextEdit{
				File:    pos.File,
				Start:   pos.Offset,
				End:     pos.Offset + len(s.padLit.Value),
				NewText: strconv.FormatUint(pad, 10),
			})
		}
		label := strings.Join(arrays, ", ")
		p.Report(Diagnostic{
			Ctor: k.Label, Kernel: k.Ex.Kernel, Array: label,
			Rule: RulePadFix,
			Detail: fmt.Sprintf("padding rows of %s by %d bytes drops the predicted CF from %.2f to %.2f",
				label, pad, k.PredCF, after),
			Severity: SeverityOf(k.PredCF), PredictedCF: k.PredCF,
			Pos: p.Position(sites[0].padLit.Pos()),
			Fixes: []SuggestedFix{{
				Message: fmt.Sprintf("set the row pad of %s to %d bytes", label, pad),
				Edits:   edits,
			}},
		}, k.Ex.Spec.Accesses...)
	}
	return nil
}

// searchPad tries candidate pads smallest-disruption-first and returns
// the first one whose overlay re-extraction the analytic model declares
// clean.
func searchPad(p *Pass, k *Kernel, sites []allocSite) (pad uint64, afterCF float64, ok bool) {
	for _, cand := range padCandidates(p, sites) {
		cf, clean := rescore(p, k, sites, cand)
		if clean && cf < padCFThreshold {
			return cand, cf, true
		}
	}
	return 0, 0, false
}

// padCandidates orders the pads to try: one line first (the classic
// fix, and the one that breaks every power-of-two row), then sub-line
// element-aligned pads (cheapest in memory), then a few line multiples.
// The list is capped so a hopeless kernel costs at most a dozen
// re-extractions.
func padCandidates(p *Pass, sites []allocSite) []uint64 {
	line := uint64(p.Geom.LineSize)
	quantum := uint64(8)
	for _, s := range sites {
		if s.elem != 0 && (s.elem < quantum || quantum == 8) {
			quantum = s.elem
		}
	}
	var out []uint64
	seen := map[uint64]bool{}
	add := func(v uint64) {
		if v > 0 && !seen[v] && len(out) < 12 {
			seen[v] = true
			out = append(out, v)
		}
	}
	add(line)
	add(2 * line)
	for v := quantum; v < line; v += quantum {
		add(v)
	}
	add(3 * line)
	add(4 * line)
	return out
}

// rescore applies the candidate pad to every site as an in-memory
// overlay, re-extracts the same kernel variant from the patched source,
// and scores it with the analytic model. Failures (unparsable overlay,
// spec gone non-affine) report not-clean.
func rescore(p *Pass, k *Kernel, sites []allocSite, pad uint64) (cf float64, clean bool) {
	overlay, err := buildOverlay(p, sites, pad)
	if err != nil {
		return 0, false
	}
	pkg, err := specgen.LoadOverlay(p.Dir, overlay)
	if err != nil {
		return 0, false
	}
	ex, err := pkg.ExtractKernel(p.Geom, k.Ctor, k.Variant)
	if err != nil || ex.Spec == nil {
		return 0, false
	}
	ar, err := analytic.Analyze(ex.Spec, p.Geom, analytic.Options{})
	if err != nil || ar.Conflict {
		return 0, false
	}
	return ar.PredictedCF, true
}

// buildOverlay renders the candidate pad into the source files owning
// the pad literals, without touching the tree.
func buildOverlay(p *Pass, sites []allocSite, pad uint64) (map[string][]byte, error) {
	text := strconv.FormatUint(pad, 10)
	byFile := map[string][]allocSite{}
	for _, s := range sites {
		pos := p.Pkg.Fset().Position(s.padLit.Pos())
		byFile[pos.Filename] = append(byFile[pos.Filename], s)
	}
	overlay := map[string][]byte{}
	for file, fsites := range byFile {
		src, err := readFile(file)
		if err != nil {
			return nil, err
		}
		sort.Slice(fsites, func(i, j int) bool { return fsites[i].padLit.Pos() > fsites[j].padLit.Pos() })
		for _, s := range fsites {
			off := p.Pkg.Fset().Position(s.padLit.Pos()).Offset
			end := off + len(s.padLit.Value)
			if off < 0 || end > len(src) || string(src[off:end]) != s.padLit.Value {
				return nil, fmt.Errorf("conflint: pad literal moved under %s", file)
			}
			src = append(src[:off:off], append([]byte(text), src[end:]...)...)
		}
		overlay[base(file)] = src
	}
	return overlay, nil
}

func base(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
