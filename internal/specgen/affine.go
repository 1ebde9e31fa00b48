// Package specgen derives staticconf access specifications directly from
// the Go source of the workload kernels — the "analyze the program text"
// half of the static conflict story (Gysi et al.; Razzak et al.), closing
// the loop that internal/workloads/specs.go warns about: hand-written
// specs can silently drift from the generators they describe.
//
// The extractor is a small abstract interpreter over go/ast. It evaluates
// a workload constructor with concrete scalar arguments, mirrors the
// effects of the alloc arena and the objfile builder exactly (so bases and
// strides are numerically identical to the real program), and runs the
// kernel's runThread body with every loop induction variable kept
// symbolic. Each sink.Ref call yields one event whose address is an affine
// expression over the live induction variables; synthesis (synth.go) turns
// the event stream into staticconf.Access values. Addresses the
// interpreter cannot express affinely — random gathers, pointer-chasing
// descents, loop-carried non-affine values — become explicitly reported
// unanalyzable sites, never mis-extracted numbers.
package specgen

import (
	"fmt"
	"sort"
	"strings"
)

// ivar is one symbolic loop induction variable τ, counting iterations
// 0 … Trip-1. The surface loop variable relates to it affinely
// (v = lo + step·τ); affine expressions carry τ terms directly.
type ivar struct {
	id   int    // creation order, unique per extraction
	name string // surface variable name, for diagnostics
	// trip is the rectangularized iteration count: the maximum of the
	// exact count over the enclosing iteration domain. Always ≥ 1 for a
	// loop whose body runs.
	trip int
	// tmaxExpr, when non-nil, is the exact affine expression (over outer
	// ivs) of the last iteration index τ_max = count-1. Unit-step loops
	// have it exactly; it is what keeps triangular bounds (k ≤ d) exact
	// in rangeOf instead of decaying to the rectangular hull.
	tmaxExpr *affine
	// fresh marks ivs introduced at closure boundaries to rebind a
	// skewed (mixed-sign) argument as one rectangular dimension; sources
	// lists the ivs the argument coupled, which the fresh variable
	// absorbs (their zero-stride dims are dropped at synthesis).
	fresh   bool
	sources []*ivar
}

// affine is c0 + Σ coeff_i · τ_i with concrete int64 coefficients.
// The zero value is the constant 0. Terms are kept sorted by iv id and
// never carry a zero coefficient.
type affine struct {
	c0    int64
	terms []term
}

type term struct {
	iv *ivar
	c  int64
}

func aConst(c int64) *affine { return &affine{c0: c} }

func aIvar(iv *ivar) *affine { return &affine{terms: []term{{iv: iv, c: 1}}} }

func (a *affine) isConst() bool { return len(a.terms) == 0 }

func (a *affine) coeff(iv *ivar) int64 {
	for _, t := range a.terms {
		if t.iv == iv {
			return t.c
		}
	}
	return 0
}

func aAdd(a, b *affine) *affine {
	out := &affine{c0: a.c0 + b.c0}
	i, j := 0, 0
	for i < len(a.terms) && j < len(b.terms) {
		ta, tb := a.terms[i], b.terms[j]
		switch {
		case ta.iv.id < tb.iv.id:
			out.terms = append(out.terms, ta)
			i++
		case ta.iv.id > tb.iv.id:
			out.terms = append(out.terms, tb)
			j++
		default:
			if c := ta.c + tb.c; c != 0 {
				out.terms = append(out.terms, term{iv: ta.iv, c: c})
			}
			i, j = i+1, j+1
		}
	}
	out.terms = append(out.terms, a.terms[i:]...)
	out.terms = append(out.terms, b.terms[j:]...)
	return out
}

func aNeg(a *affine) *affine { return aScale(a, -1) }

func aSub(a, b *affine) *affine { return aAdd(a, aNeg(b)) }

func aScale(a *affine, k int64) *affine {
	if k == 0 {
		return aConst(0)
	}
	out := &affine{c0: a.c0 * k, terms: make([]term, 0, len(a.terms))}
	for _, t := range a.terms {
		out.terms = append(out.terms, term{iv: t.iv, c: t.c * k})
	}
	return out
}

// aMul multiplies two affine expressions; it succeeds only when at least
// one side is constant (the product would otherwise be quadratic).
func aMul(a, b *affine) (*affine, bool) {
	if a.isConst() {
		return aScale(b, a.c0), true
	}
	if b.isConst() {
		return aScale(a, b.c0), true
	}
	return nil, false
}

// aDiv divides by a constant; exact only when every coefficient divides.
// Division by 1 is always exact (the span(n, tid=0, threads=1) path).
func aDiv(a, b *affine) (*affine, bool) {
	if !b.isConst() || b.c0 == 0 {
		return nil, false
	}
	d := b.c0
	if d == 1 {
		return a, true
	}
	if a.isConst() {
		return aConst(a.c0 / d), true
	}
	if a.c0%d != 0 {
		return nil, false
	}
	out := &affine{c0: a.c0 / d}
	for _, t := range a.terms {
		if t.c%d != 0 {
			return nil, false
		}
		out.terms = append(out.terms, term{iv: t.iv, c: t.c / d})
	}
	return out, true
}

// aMod reduces modulo a constant. Only the always-exact cases are handled:
// mod 1 is 0, and a constant reduces directly.
func aMod(a, b *affine) (*affine, bool) {
	if !b.isConst() || b.c0 == 0 {
		return nil, false
	}
	if b.c0 == 1 {
		return aConst(0), true
	}
	if a.isConst() {
		return aConst(a.c0 % b.c0), true
	}
	return nil, false
}

// substitute replaces iv with the expression e (over strictly outer ivs).
func (a *affine) substitute(iv *ivar, e *affine) *affine {
	c := a.coeff(iv)
	if c == 0 {
		return a
	}
	out := &affine{c0: a.c0}
	for _, t := range a.terms {
		if t.iv != iv {
			out.terms = append(out.terms, t)
		}
	}
	return aAdd(out, aScale(e, c))
}

// deepest returns the term whose iv was created last (innermost); ivs are
// created outside-in, so the largest id is the innermost dependency.
func (a *affine) deepest() (term, bool) {
	if len(a.terms) == 0 {
		return term{}, false
	}
	best := a.terms[0]
	for _, t := range a.terms[1:] {
		if t.iv.id > best.iv.id {
			best = t
		}
	}
	return best, true
}

// rangeOf computes the inclusive value range of a over the iteration
// domain. When an iv has an exact symbolic last-iteration expression
// (unit-step loops), substituting it preserves cross-variable coupling —
// the triangular k ≤ d bound of a wavefront stays exact instead of
// widening to the rectangular hull. Ivs without one fall back to the
// rectangularized [0, trip-1] interval.
func rangeOf(a *affine) (lo, hi int64) {
	const maxSubst = 64
	return rangeOfDepth(a, maxSubst)
}

func rangeOfDepth(a *affine, budget int) (lo, hi int64) {
	t, ok := a.deepest()
	if !ok {
		return a.c0, a.c0
	}
	if budget <= 0 || t.iv.tmaxExpr == nil {
		// Rectangular interval for this iv.
		rest := a.substitute(t.iv, aConst(0))
		rlo, rhi := rangeOfDepth(rest, budget-1)
		ext := t.c * int64(t.iv.trip-1)
		if ext >= 0 {
			return rlo, rhi + ext
		}
		return rlo + ext, rhi
	}
	// Exact: evaluate at τ = 0 and τ = τ_max symbolically, recurse.
	atZero := a.substitute(t.iv, aConst(0))
	atMax := a.substitute(t.iv, t.iv.tmaxExpr)
	zlo, zhi := rangeOfDepth(atZero, budget-1)
	mlo, mhi := rangeOfDepth(atMax, budget-1)
	if mlo < zlo {
		zlo = mlo
	}
	if mhi > zhi {
		zhi = mhi
	}
	return zlo, zhi
}

// mixedSign reports whether a couples ivs with both positive and negative
// coefficients — the signature of a skewed (wavefront) iteration domain
// that a rectangular dim vector cannot represent directly.
func (a *affine) mixedSign() bool {
	pos, neg := false, false
	for _, t := range a.terms {
		if t.c > 0 {
			pos = true
		}
		if t.c < 0 {
			neg = true
		}
	}
	return pos && neg
}

func (a *affine) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d", a.c0)
	ts := append([]term(nil), a.terms...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].iv.id < ts[j].iv.id })
	for _, t := range ts {
		fmt.Fprintf(&b, " + %d·%s", t.c, t.iv.name)
	}
	return b.String()
}
