package specgen

import (
	"fmt"

	"repro/internal/mem"
)

// ExtractPadVariant runs a case-study constructor, invokes the case's
// PadBuilder closure with the given pad, and synthesizes the spec of the
// resulting Program. It is the extracted-spec counterpart of
// CaseStudy.SpecBuilder, letting the advisor's static-first pruning run
// without any hand-written spec.
func (p *Package) ExtractPadVariant(g mem.Geometry, ctor string, pad uint64, args ...int) (*Extraction, error) {
	in := p.newInterp()
	cs, err := in.callCtor(ctor, args)
	if err != nil {
		return nil, err
	}
	pb, ok := cs.fields["PadBuilder"].(*vClosure)
	if !ok {
		return nil, fmt.Errorf("specgen: %s: case study has no tracked PadBuilder", ctor)
	}
	res, err := in.callClosure(pb, []value{vInt(int64(pad))})
	if err != nil {
		return nil, fmt.Errorf("specgen: %s: PadBuilder(%d): %w", ctor, pad, err)
	}
	prog, ok := res.(*vStruct)
	if !ok {
		return nil, fmt.Errorf("specgen: %s: PadBuilder returned %T, want a Program", ctor, res)
	}
	return in.extractFromProgram(prog, g, ctor)
}
