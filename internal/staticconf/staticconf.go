// Package staticconf predicts cache-set conflicts from affine access
// specifications alone — no trace, no simulation.
//
// CCProf's dynamic pipeline observes a run: it samples misses, measures
// re-conflict distances (RCD), and classifies loops from the measured
// short-RCD contribution factor. For affine loop nests, however, the set
// mapping is computable in closed form from strides and extents (Gysi et
// al., "A Fast Analytical Model of Fully Associative Caches"; Razzak et
// al., "Static Reuse Profile Estimation for Array Applications"). This
// package is that static path: given per-loop access specifications
// (array base, element size, per-dimension strides and trip counts) and a
// mem.Geometry, it computes
//
//   - the cache-set footprint histogram of every access — which sets are
//     touched and with what multiplicity — via an O(dims × setspan)
//     residue convolution over Z_S, independent of trip counts;
//   - the per-set distinct-line demand within one reuse window, whose
//     comparison against the associativity is the paper's §2
//     power-of-two-stride pathology stated as a checkable theorem
//     (including the camping-set case, where outer iterations move the
//     footprint by less than a line so the same sets stay overloaded);
//   - a predicted short-RCD contribution factor and predicted RCD, so the
//     static verdict is directly comparable to the dynamic classifier's.
//
// The enumeration is the measured reference the closed-form model in
// internal/analytic is checked against: the analytic model's tests and
// the staticconf, specgen and analytic experiments compare the two. The
// advisor, conflint and ccprof read the analytic verdict, not this one.
//
// What stays dynamic: replacement-policy details, sampling noise, and
// non-affine access patterns (pointer chasing, data-dependent indices).
// Specs describe the dominant affine references of a kernel; the
// static-vs-dynamic confusion-matrix experiment quantifies the gap.
package staticconf

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/mem"
)

// Dim is one loop dimension of an affine access, outermost first in
// Access.Dims. Stride is the byte distance between consecutive iterations
// of this dimension; a zero stride models a dimension that revisits the
// same addresses (temporal multiplicity, e.g. a time-step loop).
type Dim struct {
	Stride int64
	Trip   int
}

// Access is one static array reference inside a loop nest. The reference
// at iteration vector (i_0 … i_{n-1}) touches byte address
//
//	Base + Σ_d i_d · Dims[d].Stride
//
// reading Elem bytes.
type Access struct {
	// Array names the allocation the reference touches, matching the
	// arena block name used by data-centric attribution.
	Array string
	// Loop is the source location of the enclosing loop, matching the
	// loop names in dynamic reports (e.g. "adi.c:59").
	Loop string
	// Base is the address of the reference at the all-zero iteration.
	Base uint64
	// Elem is the bytes accessed per reference.
	Elem uint64
	// Dims lists the loop dimensions, outermost first.
	Dims []Dim
	// Window is the number of innermost dims forming one reuse window:
	// the iteration span within which a line, once loaded, is expected
	// to be live again. Zero means 1 (the innermost loop).
	Window int
	// Approx marks an access whose dims are a deliberate rectangular
	// approximation of data-dependent or non-rectangular traffic (random
	// gathers, pointer chases, triangular nests). The analyzer treats it
	// like any other access; spec-extraction cross-checks compare such
	// accesses by volume only, since no affine extractor can reproduce
	// them from source.
	Approx bool
	// Write marks a store. The conflict analysis is read/write agnostic
	// (a line occupies its set either way); the false-sharing check is
	// not — only written lines invalidate across cores.
	Write bool
}

// Spec is the full affine access specification of one kernel variant.
type Spec struct {
	Kernel   string
	Accesses []Access
}

// Options tunes the analyzer. The zero value selects the defaults below.
type Options struct {
	// WindowRefCap bounds the per-access reuse-window enumeration;
	// default 1<<20. Larger windows are truncated (and reported).
	WindowRefCap int
	// CapacityFrac distinguishes conflict pressure from capacity
	// pressure: when more than this fraction of all sets is overloaded,
	// the cache is uniformly over-subscribed — misses are capacity
	// misses with long RCDs, not conflicts. Default 0.5.
	CapacityFrac float64
	// MinConflictShare is the minimum predicted short-RCD contribution
	// factor for a conflict verdict; default 0.25.
	MinConflictShare float64
}

func (o Options) withDefaults() Options {
	if o.WindowRefCap == 0 {
		o.WindowRefCap = 1 << 20
	}
	if o.CapacityFrac == 0 {
		o.CapacityFrac = 0.5
	}
	if o.MinConflictShare == 0 {
		o.MinConflictShare = 0.25
	}
	return o
}

// AccessReport is the per-access analysis output.
type AccessReport struct {
	Access Access
	// TotalRefs is the number of references the access issues over the
	// whole nest (the product of all trip counts).
	TotalRefs uint64
	// SetsTouched counts sets receiving at least one reference;
	// MaxSetRefs is the hottest set's reference count. Together they are
	// the footprint histogram summary (the full histogram is in
	// Report.Touches).
	SetsTouched int
	MaxSetRefs  uint64
	// WindowLines is the number of distinct cache lines touched within
	// one reuse window; WindowSets the number of sets they map to.
	WindowLines int
	WindowSets  int
	// StrideSets is the closed-form distinct-set count of a pure walk of
	// the innermost non-zero window stride: the §2 arithmetic. A small
	// value relative to the walk length is the power-of-two pathology.
	StrideSets int
	// PowerOfTwo reports the pure pathology: the innermost non-zero
	// window stride is ≡ 0 (mod set span), so consecutive iterations
	// land on the same set.
	PowerOfTwo bool
	// Pathological reports that this access alone overwhelms the
	// associativity of the sets its window touches:
	// WindowLines > WindowSets × Ways.
	Pathological bool
	// Camping reports the camping-set case: the access is pathological
	// and the first dimension outside the window moves the footprint by
	// less than one line (or not at all) per iteration, so the same sets
	// stay overloaded across consecutive windows.
	Camping bool
	// WindowTruncated reports that the reuse-window enumeration hit
	// Options.WindowRefCap; demand figures are then lower bounds.
	WindowTruncated bool
}

// Report is the static verdict for one kernel.
type Report struct {
	Kernel   string
	Geom     mem.Geometry
	Accesses []AccessReport
	// Touches is the per-set reference count over the whole run summed
	// across accesses: the footprint histogram.
	Touches []uint64
	// Demand is the per-set distinct-line demand within one reuse
	// window, deduplicated across accesses by absolute line address.
	// Demand[s] > Ways means set s cannot hold its working set.
	Demand []int
	// Overloaded lists the sets whose Demand exceeds the associativity,
	// ascending. MaxDemand is the largest per-set demand.
	Overloaded []int
	MaxDemand  int
	// PredictedCF is the predicted short-RCD contribution factor: the
	// modeled share of misses that are conflict-window thrash rather
	// than compulsory or streaming misses.
	PredictedCF float64
	// PredictedRCD is the predicted re-conflict distance on the
	// overloaded sets: misses cycle round |Overloaded| sets, so the
	// distance between consecutive misses on one set is about that
	// count. With no overloaded sets it is the set count (long).
	PredictedRCD float64
	// Conflict is the static verdict.
	Conflict bool
	// Reason is a one-line human explanation of the verdict.
	Reason string
}

// Analyze runs the static analysis of spec under geometry g.
func Analyze(spec *Spec, g mem.Geometry, opts Options) (*Report, error) {
	if spec == nil {
		return nil, fmt.Errorf("staticconf: nil spec")
	}
	if len(spec.Accesses) == 0 {
		return nil, fmt.Errorf("staticconf: spec %q has no accesses", spec.Kernel)
	}
	o := opts.withDefaults()

	rep := &Report{
		Kernel:  spec.Kernel,
		Geom:    g,
		Touches: make([]uint64, g.Sets),
		Demand:  make([]int, g.Sets),
	}

	// Per-access footprints and reuse windows. Lines are deduplicated
	// globally by absolute line number so two accesses walking the same
	// array (a read and a writeback, say) do not double their demand.
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	globalLines := make(map[uint64]struct{})
	perAccess := make([]windowInfo, len(spec.Accesses))
	for i, a := range spec.Accesses {
		hist := touchHist(a, g)
		ar := AccessReport{Access: a, TotalRefs: totalRefs(a)}
		for s, c := range hist {
			rep.Touches[s] += c
			if c > 0 {
				ar.SetsTouched++
			}
			if c > ar.MaxSetRefs {
				ar.MaxSetRefs = c
			}
		}

		w := enumerateWindow(a, g, o.WindowRefCap)
		perAccess[i] = w
		ar.WindowTruncated = w.truncated
		ar.WindowLines = len(w.lines)
		wsets := make(map[int]struct{})
		for ln := range w.lines {
			wsets[int(ln)%g.Sets] = struct{}{}
			globalLines[ln] = struct{}{}
		}
		ar.WindowSets = len(wsets)

		if s, trip, ok := innerWindowStride(a); ok {
			ar.StrideSets = StrideSets(a.Base, s, trip, g)
			span := int64(g.Sets * g.LineSize)
			ar.PowerOfTwo = trip > 1 && s%span == 0
		}
		ar.Pathological = ar.WindowSets > 0 && ar.WindowLines > ar.WindowSets*g.Ways
		ar.Camping = ar.Pathological && campingOuter(a, g)
		rep.Accesses = append(rep.Accesses, ar)
	}

	// Union line demand per set, and the overloaded set list.
	for ln := range globalLines {
		rep.Demand[int(ln)%g.Sets]++
	}
	for s, d := range rep.Demand {
		if d > rep.MaxDemand {
			rep.MaxDemand = d
		}
		if d > g.Ways {
			rep.Overloaded = append(rep.Overloaded, s)
		}
	}
	sort.Ints(rep.Overloaded)

	rep.PredictedCF = predictCF(spec.Accesses, perAccess, rep.Overloaded, g)
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

// Validation sentinels, matched with errors.Is through the wrapping
// *ValidationError.
var (
	ErrZeroElem        = errors.New("zero element size")
	ErrNonPositiveTrip = errors.New("non-positive trip count")
	ErrWindowTooWide   = errors.New("window wider than the dim list")
)

// ValidationError pinpoints one structurally invalid field of an access
// spec: which kernel, which access, which field, and the sentinel cause.
type ValidationError struct {
	Kernel string
	Access int    // index into Spec.Accesses
	Array  string // Access.Array, for readable messages
	Field  string // e.g. "Elem", "Dims[2].Trip", "Window"
	Detail string
	Err    error // one of the sentinels above
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("staticconf: %s: access %d (%s): %s: %s (%s)",
		e.Kernel, e.Access, e.Array, e.Field, e.Err, e.Detail)
}

func (e *ValidationError) Unwrap() error { return e.Err }

// Validate checks every access of the spec for structural validity and
// returns the first violation as a *ValidationError.
func (s *Spec) Validate() error {
	for i, a := range s.Accesses {
		if err := validate(a); err != nil {
			ve := err.(*ValidationError)
			ve.Kernel, ve.Access, ve.Array = s.Kernel, i, a.Array
			return ve
		}
	}
	return nil
}

func validate(a Access) error {
	if a.Elem == 0 {
		return &ValidationError{Field: "Elem", Detail: "Elem is 0", Err: ErrZeroElem}
	}
	for d, dim := range a.Dims {
		if dim.Trip < 1 {
			return &ValidationError{
				Field:  fmt.Sprintf("Dims[%d].Trip", d),
				Detail: fmt.Sprintf("trip %d < 1", dim.Trip),
				Err:    ErrNonPositiveTrip,
			}
		}
	}
	if a.Window > len(a.Dims) && !(a.Window == 1 && len(a.Dims) == 0) {
		return &ValidationError{
			Field:  "Window",
			Detail: fmt.Sprintf("window %d exceeds %d dims", a.Window, len(a.Dims)),
			Err:    ErrWindowTooWide,
		}
	}
	return nil
}

// windowCount returns how many dims at the tail of a.Dims form the reuse
// window, after normalization.
func windowCount(a Access) int {
	w := a.Window
	if w <= 0 {
		w = 1
	}
	if w > len(a.Dims) {
		w = len(a.Dims)
	}
	return w
}

func totalRefs(a Access) uint64 {
	n := uint64(1)
	for _, d := range a.Dims {
		n *= uint64(d.Trip)
	}
	return n
}

// innerWindowStride returns the innermost window dim with a non-zero
// stride, for the §2 stride-arithmetic check.
func innerWindowStride(a Access) (stride int64, trip int, ok bool) {
	w := windowCount(a)
	for i := len(a.Dims) - 1; i >= len(a.Dims)-w; i-- {
		if a.Dims[i].Stride != 0 {
			return a.Dims[i].Stride, a.Dims[i].Trip, true
		}
	}
	return 0, 0, false
}

// campingOuter reports whether the first dimension outside the reuse
// window (if any) moves the footprint by less than one line per
// iteration modulo the set span — the condition under which the same
// sets stay overloaded window after window. With no outer dims the
// window is the whole nest and camping trivially holds.
func campingOuter(a Access, g mem.Geometry) bool {
	w := windowCount(a)
	outer := len(a.Dims) - w
	if outer <= 0 {
		return true
	}
	span := g.Sets * g.LineSize
	s := normStride(a.Dims[outer-1].Stride, span)
	if s > span/2 { // moving backwards round the ring
		s = span - s
	}
	return s < g.LineSize
}

// predictCF models the short-RCD contribution factor. Lines living on
// overloaded sets are evicted between windows, so they miss once per
// window with a short RCD (the thrash term). Everything else misses at
// most once per full revisit of a footprint larger than the cache (the
// compulsory/streaming term, long RCDs). The ratio mirrors Equation 1.
func predictCF(accesses []Access, wins []windowInfo, overloaded []int, g mem.Geometry) float64 {
	over := make(map[int]struct{}, len(overloaded))
	for _, s := range overloaded {
		over[s] = struct{}{}
	}
	var thrash, clean float64
	for i, a := range accesses {
		w := windowCount(a)
		windows := uint64(1)
		for _, d := range a.Dims[:len(a.Dims)-w] {
			windows *= uint64(d.Trip)
		}
		linesOnOver := 0
		for ln := range wins[i].lines {
			if _, ok := over[int(ln)%g.Sets]; ok {
				linesOnOver++
			}
		}
		thrash += float64(windows) * float64(linesOnOver)

		// Compulsory / streaming misses on the clean sets.
		distinct := distinctLinesEstimate(a, g)
		revisits := uint64(1)
		for _, d := range a.Dims {
			if d.Stride == 0 {
				revisits *= uint64(d.Trip)
			}
		}
		misses := float64(distinct)
		if revisits > 1 && distinct*uint64(g.LineSize) > uint64(g.Size()) {
			misses *= float64(revisits)
		}
		frac := 1.0
		if nl := len(wins[i].lines); nl > 0 {
			frac = 1 - float64(linesOnOver)/float64(nl)
		}
		clean += misses * frac
	}
	if thrash+clean == 0 {
		return 0
	}
	return thrash / (thrash + clean)
}

// distinctLinesEstimate bounds the number of distinct lines an access
// touches over the whole nest: the span of its address range, capped by
// its reference count.
func distinctLinesEstimate(a Access, g mem.Geometry) uint64 {
	lo, hi := int64(a.Base), int64(a.Base)+int64(a.Elem)-1
	for _, d := range a.Dims {
		ext := int64(d.Trip-1) * d.Stride
		if ext > 0 {
			hi += ext
		} else {
			lo += ext
		}
	}
	spanLines := uint64(hi/int64(g.LineSize)-lo/int64(g.LineSize)) + 1
	if n := totalRefs(a); n < spanLines {
		return n
	}
	return spanLines
}
