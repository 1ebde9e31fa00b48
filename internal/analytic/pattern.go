package analytic

import (
	"sort"
	"sync"

	"repro/internal/mem"
	"repro/internal/staticconf"
)

// spanPool recycles the span-sized (and cycle-sized) scratch slices the
// residue convolutions churn through. The model's cost is a handful of
// O(setspan) passes per access; without pooling, allocator and GC work
// dominates a candidate sweep that calls Analyze hundreds of times.
var spanPool sync.Pool

// getSpan returns a zeroed []int64 of length n, reusing pooled backing
// arrays when large enough.
func getSpan(n int) []int64 {
	if v := spanPool.Get(); v != nil {
		if s := *v.(*[]int64); cap(s) >= n {
			s = s[:n]
			for i := range s {
				s[i] = 0
			}
			return s
		}
	}
	return make([]int64, n)
}

func putSpan(s []int64) { spanPool.Put(&s) }

// The model represents the address set of an affine access as a lattice
// pattern: a dense block of bytes replicated along a stack of stride
// levels. Composition sorts the loop dimensions by stride; a dimension
// whose stride is covered by the dense block extends the block, a
// dimension whose stride clears the current extent becomes a new level,
// and anything in between breaks the hierarchy (the pattern is kept but
// marked inexact, and every count derived from it becomes a conservative
// upper bound). For hierarchical patterns — every level stride at least
// the extent of the sub-pattern below it — distinct coordinate vectors
// yield disjoint blocks in ascending address order, which is what makes
// the distinct-line and per-set arithmetic below exact.

// level is one replication axis: trip copies of the sub-pattern below,
// stride bytes apart. Strides are positive (negative dims are reflected
// during composition) and sorted ascending; trips are at least 2.
type level struct {
	stride int64
	trip   int64
}

// pattern is the closed-form address set of one affine access.
type pattern struct {
	base   uint64 // lowest byte address
	block  int64  // dense bytes at each leaf, ≥ 1
	levels []level
	exact  bool // hierarchical: leaves are pairwise disjoint
}

// extent is the byte span of the pattern: the distance from its lowest
// to one past its highest touched byte.
func (p pattern) extent() int64 {
	e := p.block
	for _, l := range p.levels {
		e += l.stride * (l.trip - 1)
	}
	return e
}

// compose builds the pattern of an access with the given base, element
// size and dims. Zero-stride dims contribute no addresses — they are
// pure temporal multiplicity — and are returned as the revisit factor.
// Negative strides are reflected (base moves to the low end) so the
// address set is preserved.
func compose(base uint64, elem uint64, dims []staticconf.Dim) (pattern, uint64) {
	p := pattern{base: base, block: int64(elem), exact: true}
	if p.block < 1 {
		p.block = 1
	}
	revisits := uint64(1)
	var ls []level
	for _, d := range dims {
		if d.Trip <= 1 {
			continue
		}
		if d.Stride == 0 {
			revisits *= uint64(d.Trip)
			continue
		}
		s := d.Stride
		if s < 0 {
			p.base = uint64(int64(p.base) + s*int64(d.Trip-1))
			s = -s
		}
		ls = append(ls, level{stride: s, trip: int64(d.Trip)})
	}
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].stride < ls[j].stride })
	for _, l := range ls {
		switch {
		case len(p.levels) == 0 && l.stride <= p.block:
			// Consecutive blocks overlap or abut: the union is dense.
			p.block += l.stride * (l.trip - 1)
		case l.stride >= p.extent():
			p.levels = append(p.levels, l)
		default:
			// Interleaved stride: keep the level, lose exactness.
			p.levels = append(p.levels, l)
			p.exact = false
		}
	}
	return p, revisits
}

// resDist is a residue distribution over Z_mod in compressed form:
// counts[i] leaves start at an address ≡ phase + i·step (mod mod),
// where step divides mod and every stride, so all mass lives on one
// congruence class mod step and only mod/step counters are carried.
type resDist struct {
	counts []int64
	step   int
	phase  int
}

// residues returns the distribution over Z_mod of the leaf start
// residues. Each level is an arithmetic progression, so the
// distribution is a cyclic convolution per level, computed with sliding
// window sums in O(mod/step) per level regardless of trip counts (same
// scheme as staticconf's footprint convolution, at leaf rather than
// reference granularity) — the gcd compression is what keeps a sweep
// over hundreds of candidate layouts cheap, since element-granular
// strides shrink every pass by the element size. The counts slice is
// pool-backed; callers release it with putSpan.
func residues(mod int, start uint64, lvls []level) resDist {
	step := mod
	for _, l := range lvls {
		step = gcdInt(step, int(l.stride%int64(mod)))
	}
	s := int(start % uint64(mod))
	cur := getSpan(mod / step)
	cur[s/step] = 1
	for _, l := range lvls {
		cur = convolve(cur, l.stride/int64(step), l.trip)
	}
	return resDist{counts: cur, step: step, phase: s % step}
}

// convolve consumes cur (returning it to the pool unless passed through
// unchanged) and returns the pool-backed convolution result.
func convolve(cur []int64, stride, trip int64) []int64 {
	span := len(cur)
	if trip <= 1 {
		return cur
	}
	s := int(stride % int64(span))
	if s < 0 {
		s += span
	}
	next := getSpan(span)
	if s == 0 {
		for r, c := range cur {
			next[r] = c * trip
		}
		putSpan(cur)
		return next
	}
	g := gcdInt(s, span)
	p := span / g
	full := trip / int64(p)
	rem := int(trip % int64(p))
	vals := getSpan(p)
	for startR := 0; startR < g; startR++ {
		// Walk the cycle once, caching values; wraps are conditional
		// subtractions (s < span), not divisions — this loop and the
		// sliding window below are the model's hot path.
		r := startR
		var cycleSum int64
		for i := 0; i < p; i++ {
			v := cur[r]
			vals[i] = v
			cycleSum += v
			r += s
			if r >= span {
				r -= span
			}
		}
		base := full * cycleSum
		if rem == 0 {
			if base != 0 {
				r = startR
				for i := 0; i < p; i++ {
					next[r] += base
					r += s
					if r >= span {
						r -= span
					}
				}
			}
			continue
		}
		// win at cycle position m is Σ_{t<rem} vals[(m−t) mod p],
		// maintained incrementally with wrapping cursors; r re-walks the
		// cycle so no index array is needed.
		var win int64
		k := 0
		for t := 0; t < rem; t++ {
			win += vals[k]
			if k--; k < 0 {
				k += p
			}
		}
		add := 1 % p
		sub := (1 - rem) % p
		if sub < 0 {
			sub += p
		}
		r = startR
		for m := 0; m < p; m++ {
			next[r] += base + win
			win += vals[add]
			win -= vals[sub]
			if add++; add >= p {
				add -= p
			}
			if sub++; sub >= p {
				sub -= p
			}
			r += s
			if r >= span {
				r -= span
			}
		}
	}
	putSpan(vals)
	putSpan(cur)
	return next
}

func gcdInt(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// setAcc accumulates per-set distinct-line counts: a wraparound
// difference array plus a term applied to every set, so one leaf
// covering any number of consecutive lines costs O(1).
type setAcc struct {
	diff []int64
	all  int64
}

func newSetAcc(sets int) *setAcc { return &setAcc{diff: make([]int64, sets+1)} }

// addRange adds c to the nb consecutive sets starting at set first
// (wrapping), plus full cache laps when nb exceeds the set count.
func (a *setAcc) addRange(first int, nb, c int64) {
	sets := len(a.diff) - 1
	if nb >= int64(sets) {
		a.all += c * (nb / int64(sets))
		nb %= int64(sets)
	}
	if nb == 0 {
		return
	}
	end := first + int(nb)
	if end <= sets {
		a.diff[first] += c
		a.diff[end] -= c
		return
	}
	a.diff[first] += c
	a.diff[sets] -= c
	a.diff[0] += c
	a.diff[end-sets] -= c
}

func (a *setAcc) sub(set int, c int64) {
	a.diff[set] -= c
	a.diff[set+1] += c
}

// flushInto adds the accumulated per-set counts into dem.
func (a *setAcc) flushInto(dem []int64) {
	var run int64
	for s := range dem {
		run += a.diff[s]
		dem[s] += run + a.all
	}
}

// account computes the number of distinct cache lines the pattern
// touches and, when dem is non-nil, adds the per-set distinct-line
// counts into dem (length g.Sets).
//
// The computation sums each leaf's line count from the leaf-start
// residue distribution modulo the set span, then subtracts the lines
// shared between address-consecutive leaves: a carry at level j places
// the next block δ_j = stride_j − Σ_{i<j} stride_i·(trip_i−1) bytes
// after the previous block's start, and the pair shares (exactly) one
// line iff the previous block's last byte and the next block's first
// byte fall in the same line. For hierarchical patterns address order
// equals odometer order, so those are the only possible overlaps and
// the result is exact. For inexact patterns the subtraction is skipped
// and the line count clamped to the address-span bound — a conservative
// overestimate, as is the per-set demand.
func (p pattern) account(g mem.Geometry, dem []int64) int64 {
	span := g.Sets * g.LineSize
	L := int64(g.LineSize)
	dist := residues(span, p.base, p.levels)
	var acc *setAcc
	if dem != nil {
		acc = newSetAcc(g.Sets)
	}
	var total int64
	for i, c := range dist.counts {
		if c == 0 {
			continue
		}
		r := int64(dist.phase + i*dist.step)
		off := r % L
		nb := (off+p.block-1)/L + 1
		total += c * nb
		if acc != nil {
			acc.addRange(int(r/L), nb, c)
		}
	}
	putSpan(dist.counts)
	if p.exact {
		for j := range p.levels {
			total -= p.sharedAtLevel(g, j, acc)
		}
	} else if sl := p.spanLines(L); total > sl {
		total = sl
	}
	if acc != nil {
		acc.flushInto(dem)
	}
	return total
}

// sharedAtLevel counts leaf pairs that are address-consecutive via a
// carry at level j and share a boundary line, subtracting each shared
// line from its set when acc is non-nil. Only valid for hierarchical
// patterns.
func (p pattern) sharedAtLevel(g mem.Geometry, j int, acc *setAcc) int64 {
	lvl := p.levels[j]
	span := g.Sets * g.LineSize
	L := int64(g.LineSize)
	var innerShift int64
	for i := 0; i < j; i++ {
		innerShift += p.levels[i].stride * (p.levels[i].trip - 1)
	}
	delta := lvl.stride - innerShift // next leaf start − previous leaf start
	// Distribution of the previous leaf's start: inner levels at their
	// maximum, level j below its last iteration, outer levels free.
	lvls := append([]level{{stride: lvl.stride, trip: lvl.trip - 1}}, p.levels[j+1:]...)
	dist := residues(span, p.base+uint64(innerShift), lvls)
	var n int64
	for i, c := range dist.counts {
		if c == 0 {
			continue
		}
		r := int64(dist.phase + i*dist.step)
		off := r % L
		if (off+p.block-1)/L == (off+delta)/L {
			n += c
			if acc != nil {
				acc.sub(int(((r+delta)/L)%int64(g.Sets)), c)
			}
		}
	}
	putSpan(dist.counts)
	return n
}

// spanLines bounds the distinct lines by the pattern's address span.
func (p pattern) spanLines(L int64) int64 {
	off := int64(p.base) % L
	return (off+p.extent()-1)/L + 1
}

// merge attempts to union two patterns of the same array in closed
// form. It requires identical level strides; the base offset is then
// decomposed mixed-radix over the levels (outermost first) into per-axis
// shifts plus a byte remainder against the block. Per axis, b's interval
// either sits inside a's (containment — free), extends it contiguously
// (the axis grows), or leaves a gap (the merge is rejected: summing two
// far-apart patterns is tighter than their bounding lattice). The merge
// is exact when nothing extends (b ⊆ a) or exactly one axis extends and
// every other axis is bit-for-bit identical; any other shape is a
// bounding-lattice overcount and ok=true, exact=false is returned.
func merge(a, b pattern) (out pattern, ok, exact bool) {
	if len(a.levels) != len(b.levels) {
		return pattern{}, false, false
	}
	for i := range a.levels {
		if a.levels[i].stride != b.levels[i].stride {
			return pattern{}, false, false
		}
	}
	if b.base < a.base {
		a, b = b, a
	}
	delta := int64(b.base - a.base)
	m := make([]int64, len(a.levels))
	for j := len(a.levels) - 1; j >= 0; j-- {
		m[j] = delta / a.levels[j].stride
		delta %= a.levels[j].stride
	}
	rem := delta

	out = a
	out.levels = append([]level(nil), a.levels...)
	extends, identical := 0, 0
	// Block axis: a covers [0, a.block), b covers [rem, rem+b.block).
	switch {
	case rem == 0 && b.block == a.block:
		identical++
	case rem+b.block <= a.block:
		// contained
	case rem <= a.block:
		out.block = rem + b.block
		extends++
	default:
		return pattern{}, false, false // byte gap
	}
	for j := range out.levels {
		ta, tb := a.levels[j].trip, m[j]+b.levels[j].trip
		switch {
		case m[j] == 0 && b.levels[j].trip == ta:
			identical++
		case tb <= ta:
			// contained
		case m[j] <= ta:
			out.levels[j].trip = tb
			extends++
		default:
			return pattern{}, false, false // index gap
		}
	}
	axes := len(out.levels) + 1
	exact = a.exact && b.exact &&
		(extends == 0 || (extends == 1 && identical == axes-1))
	// Extending an axis can break the hierarchy of the axes above it.
	e := out.block
	for j := range out.levels {
		if out.levels[j].stride < e {
			exact = false
		}
		e += out.levels[j].stride * (out.levels[j].trip - 1)
	}
	out.exact = exact
	return out, true, exact
}

// fold greedily merges a group of patterns (one array's accesses) so
// that summing the survivors' per-set demands over-counts as little as
// possible. It reports whether the group's summed accounting is provably
// exact: every merge was exact and a single pattern remains.
func fold(ps []pattern) ([]pattern, bool) {
	exact := true
	var kept []pattern
	for _, p := range ps {
		merged := false
		for i := range kept {
			if u, ok, ex := merge(kept[i], p); ok {
				kept[i] = u
				if !ex {
					exact = false
				}
				merged = true
				break
			}
		}
		if !merged {
			kept = append(kept, p)
		}
	}
	if len(kept) > 1 {
		// Survivors may still interleave or share boundary lines;
		// exactness of the sum is no longer provable.
		exact = false
	}
	for _, p := range kept {
		if !p.exact {
			exact = false
		}
	}
	return kept, exact
}
