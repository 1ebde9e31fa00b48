// Package analytic predicts cache-set conflicts from affine access
// specifications in closed form — no trace replay, no per-reference
// enumeration, not even of a single reuse window.
//
// Where staticconf enumerates one reuse window per access to measure
// per-set line demand, this package computes the same quantities purely
// arithmetically, in the spirit of Gysi et al. ("A Fast Analytical Model
// of Fully Associative Caches"): each access composes into a lattice
// pattern (a dense block replicated along stride levels), and
// distinct-line counts, per-set pressure and the predicted contribution
// factor all follow from residue distributions of
// the pattern modulo the line size and set span. Cost is
// O(dims × setspan/gcd) per access — independent of trip counts, with
// every residue pass gcd-compressed onto the one congruence class the
// strides can reach — which is what makes sweeping hundreds of candidate
// layouts practical.
//
// For hierarchical patterns (every level stride at least the extent of
// the sub-pattern below, which covers row-major walks, strided column
// walks, tiled nests and stencils) the arithmetic is exact and the
// report says so; interleaved strides degrade gracefully to conservative
// overestimates with Exact cleared. The verdict rule mirrors
// staticconf's, so the two tiers are directly comparable — and both are
// validated against the exact simulator by the `analytic` experiment's
// confusion matrix.
package analytic

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/staticconf"
)

// Options tunes the analyzer. The zero value selects the defaults,
// which match staticconf's so the tiers agree on what "conflict" means.
type Options struct {
	// CapacityFrac distinguishes conflict pressure from capacity
	// pressure: when more than this fraction of all sets is overloaded
	// the cache is uniformly over-subscribed. Default 0.5.
	CapacityFrac float64
	// MinConflictShare is the minimum predicted short-RCD contribution
	// factor for a conflict verdict; default 0.25.
	MinConflictShare float64
	// SkipTouches leaves Report.Touches nil. The per-set reference
	// histogram is diagnostic output only — no verdict depends on it —
	// and it is the one remaining full-span convolution per access, so
	// sweep callers that evaluate hundreds of candidate layouts skip it.
	SkipTouches bool
}

func (o Options) withDefaults() Options {
	if o.CapacityFrac == 0 {
		o.CapacityFrac = 0.5
	}
	if o.MinConflictShare == 0 {
		o.MinConflictShare = 0.25
	}
	return o
}

// AccessReport is the per-access closed-form analysis.
type AccessReport struct {
	Access staticconf.Access
	// TotalRefs is the reference count over the whole nest; Windows the
	// number of reuse windows (the product of the outer trips).
	TotalRefs uint64
	Windows   uint64
	// Revisits is the temporal multiplicity from zero-stride dims: how
	// often the whole footprint is re-walked.
	Revisits uint64
	// WindowLines is the distinct lines touched within one reuse window,
	// WindowSets the sets they map to, FootprintLines the distinct lines
	// over the whole nest — all computed arithmetically.
	WindowLines    int64
	WindowSets     int
	FootprintLines int64
	// Exact reports that this access's pattern is hierarchical, so the
	// counts above are exact rather than conservative upper bounds.
	Exact bool
}

// Report is the analytic verdict for one kernel.
type Report struct {
	Kernel   string
	Geom     mem.Geometry
	Accesses []AccessReport
	// Touches is the per-set reference count over the whole run — the
	// footprint histogram, identical to staticconf's but derived without
	// enumerating references.
	Touches []uint64
	// Demand is the per-set distinct-line demand within one reuse
	// window, with same-array accesses folded in closed form so unions
	// are not double-counted where the fold can prove containment.
	Demand []int64
	// Overloaded lists sets whose Demand exceeds the associativity.
	Overloaded []int
	MaxDemand  int64
	// PredictedCF is the modeled short-RCD contribution factor,
	// PredictedRCD the modeled re-conflict distance, both comparable to
	// the dynamic classifier's measurements.
	PredictedCF  float64
	PredictedRCD float64
	Conflict     bool
	// Exact reports that every access pattern was hierarchical AND the
	// cross-access demand fold was provably exact; DemandExact covers
	// only the latter. When false, demand and line counts are
	// conservative overestimates (the model errs toward conflict).
	Exact       bool
	DemandExact bool
	Reason      string
}

// Analyze runs the closed-form analysis of spec under geometry g.
func Analyze(spec *staticconf.Spec, g mem.Geometry, opts Options) (*Report, error) {
	if spec == nil {
		return nil, fmt.Errorf("analytic: nil spec")
	}
	if len(spec.Accesses) == 0 {
		return nil, fmt.Errorf("analytic: spec %q has no accesses", spec.Kernel)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()

	rep := &Report{
		Kernel:      spec.Kernel,
		Geom:        g,
		Demand:      make([]int64, g.Sets),
		Exact:       true,
		DemandExact: true,
	}
	if !o.SkipTouches {
		rep.Touches = make([]uint64, g.Sets)
	}

	groups := map[string][]pattern{}
	var order []string
	winDemand := make([][]int64, len(spec.Accesses))
	for i, a := range spec.Accesses {
		w := windowDims(a)
		winPat, _ := compose(a.Base, a.Elem, w)
		fullPat, revisits := compose(a.Base, a.Elem, a.Dims)

		ar := AccessReport{
			Access:    a,
			TotalRefs: tripProduct(a.Dims),
			Windows:   tripProduct(a.Dims[:len(a.Dims)-len(w)]),
			Revisits:  revisits,
			Exact:     winPat.exact && fullPat.exact,
		}

		dem := make([]int64, g.Sets)
		ar.WindowLines = winPat.account(g, dem)
		winDemand[i] = dem
		for _, d := range dem {
			if d > 0 {
				ar.WindowSets++
			}
		}
		ar.FootprintLines = fullPat.account(g, nil)
		rep.Accesses = append(rep.Accesses, ar)
		if !ar.Exact {
			rep.Exact = false
		}

		if !o.SkipTouches {
			addTouches(rep.Touches, a, g)
		}

		if _, ok := groups[a.Array]; !ok {
			order = append(order, a.Array)
		}
		groups[a.Array] = append(groups[a.Array], winPat)
	}

	// Union window demand per set: fold each array's window patterns in
	// closed form, then sum the survivors. Distinct arrays are distinct
	// allocations and assumed line-disjoint.
	for _, name := range order {
		kept, exact := fold(groups[name])
		if !exact {
			rep.DemandExact = false
		}
		for _, p := range kept {
			p.account(g, rep.Demand)
		}
	}
	rep.Exact = rep.Exact && rep.DemandExact

	for s, d := range rep.Demand {
		if d > rep.MaxDemand {
			rep.MaxDemand = d
		}
		if d > int64(g.Ways) {
			rep.Overloaded = append(rep.Overloaded, s)
		}
	}
	sort.Ints(rep.Overloaded)

	rep.PredictedCF = predictCF(rep.Accesses, winDemand, rep.Overloaded, g)
	if n := len(rep.Overloaded); n > 0 {
		rep.PredictedRCD = float64(n)
	} else {
		rep.PredictedRCD = float64(g.Sets)
	}

	capacityBound := int(o.CapacityFrac * float64(g.Sets))
	switch {
	case len(rep.Overloaded) == 0:
		rep.Conflict = false
		rep.Reason = fmt.Sprintf("clean: max window demand %d ≤ %d ways on every set", rep.MaxDemand, g.Ways)
	case len(rep.Overloaded) > capacityBound:
		rep.Conflict = false
		rep.Reason = fmt.Sprintf("capacity-bound: %d/%d sets over-subscribed (demand up to %d lines); pressure is uniform, RCDs are long",
			len(rep.Overloaded), g.Sets, rep.MaxDemand)
	case rep.PredictedCF < o.MinConflictShare:
		rep.Conflict = false
		rep.Reason = fmt.Sprintf("clean: %d sets overloaded but predicted conflict share %.2f < %.2f",
			len(rep.Overloaded), rep.PredictedCF, o.MinConflictShare)
	default:
		rep.Conflict = true
		rep.Reason = fmt.Sprintf("conflict: %d/%d sets overloaded (demand up to %d > %d ways), predicted CF %.2f, predicted RCD %.0f",
			len(rep.Overloaded), g.Sets, rep.MaxDemand, g.Ways, rep.PredictedCF, rep.PredictedRCD)
	}
	return rep, nil
}

// windowDims returns the innermost dims forming the reuse window, after
// the same normalization staticconf applies.
func windowDims(a staticconf.Access) []staticconf.Dim {
	w := a.Window
	if w <= 0 {
		w = 1
	}
	if w > len(a.Dims) {
		w = len(a.Dims)
	}
	return a.Dims[len(a.Dims)-w:]
}

func tripProduct(dims []staticconf.Dim) uint64 {
	n := uint64(1)
	for _, d := range dims {
		n *= uint64(d.Trip)
	}
	return n
}

// addTouches accumulates the access's per-set reference counts — the
// residue distribution of reference start addresses over all dims,
// bucketed by set. Zero-stride dims multiply counts in place. Like
// residues, the convolution runs gcd-compressed: all mass lives on one
// congruence class modulo the gcd of the span and the strides.
func addTouches(touches []uint64, a staticconf.Access, g mem.Geometry) {
	span := g.Sets * g.LineSize
	step := span
	for _, d := range a.Dims {
		s := d.Stride
		if s < 0 {
			s = -s
		}
		step = gcdInt(step, int(s%int64(span)))
	}
	start := int(a.Base % uint64(span))
	cur := getSpan(span / step)
	cur[start/step] = 1
	for _, d := range a.Dims {
		cur = convolve(cur, d.Stride/int64(step), int64(d.Trip))
	}
	phase := start % step
	for i, c := range cur {
		if c != 0 {
			touches[(phase+i*step)/g.LineSize] += uint64(c)
		}
	}
	putSpan(cur)
}

// predictCF mirrors staticconf's contribution-factor model with
// closed-form inputs: lines living on overloaded sets thrash once per
// window (short RCDs); everything else misses at most once per footprint
// revisit (compulsory/streaming, long RCDs).
func predictCF(accesses []AccessReport, winDemand [][]int64, overloaded []int, g mem.Geometry) float64 {
	var thrash, clean float64
	for i, ar := range accesses {
		var linesOnOver int64
		for _, s := range overloaded {
			linesOnOver += winDemand[i][s]
		}
		thrash += float64(ar.Windows) * float64(linesOnOver)

		misses := float64(ar.FootprintLines)
		if ar.Revisits > 1 && ar.FootprintLines*int64(g.LineSize) > int64(g.Size()) {
			misses *= float64(ar.Revisits)
		}
		frac := 1.0
		if ar.WindowLines > 0 {
			frac = 1 - float64(linesOnOver)/float64(ar.WindowLines)
			if frac < 0 {
				frac = 0
			}
		}
		clean += misses * frac
	}
	if thrash+clean == 0 {
		return 0
	}
	return thrash / (thrash + clean)
}

// WriteText renders the report for terminal consumption.
func (r *Report) WriteText(w io.Writer) error {
	t := report.NewTable(fmt.Sprintf("analytic conflict model: %s (%s)", r.Kernel, r.Geom),
		"array", "loop", "refs", "win lines", "win sets", "footprint", "exact")
	for _, ar := range r.Accesses {
		t.Row(ar.Access.Array, ar.Access.Loop,
			fmt.Sprintf("%d", ar.TotalRefs),
			fmt.Sprintf("%d", ar.WindowLines),
			fmt.Sprintf("%d", ar.WindowSets),
			fmt.Sprintf("%d", ar.FootprintLines),
			exactString(ar.Exact))
	}
	if err := t.Write(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\nmax window demand %d lines/set (%d ways); %d/%d sets overloaded\npredicted CF %.2f, predicted RCD %.0f; model %s\nverdict: %s\n",
		r.MaxDemand, r.Geom.Ways, len(r.Overloaded), r.Geom.Sets,
		r.PredictedCF, r.PredictedRCD, exactString(r.Exact), r.Reason); err != nil {
		return err
	}
	return nil
}

func exactString(e bool) string {
	if e {
		return "exact"
	}
	return "bound"
}
