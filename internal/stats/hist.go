package stats

import (
	"fmt"
	"sort"
)

// denseSpan is the value range [0, denseSpan) an IntHist counts in a flat
// array. RCD values are overwhelmingly small — bounded by the set count (64
// for the default L1) for any balanced traffic, and the conflict signature
// the paper looks for is RCD <= 8 — so nearly every observation lands in
// the dense span and costs one array increment instead of a map probe. The
// span also covers the bulk of conflict-period lengths, keeping the
// overflow map (and its per-sweep churn) out of the replay hot path.
const denseSpan = 512

// IntHist is a histogram over integer values, used for pooled RCD
// distributions (Figures 7 and 9), conflict-period lengths and miss-per-set
// counts (Figure 3-b). Values in [0, denseSpan) are counted in a flat
// array; anything outside spills to a map. The zero value is ready to use.
type IntHist struct {
	small    []uint64       // counts for values in [0, denseSpan); nil until first use
	big      map[int]uint64 // overflow counts; nil until first out-of-span value
	distinct int            // number of nonzero entries in small
	total    uint64
}

// Add increments the count of value v by 1.
func (h *IntHist) Add(v int) { h.AddN(v, 1) }

// AddN increments the count of value v by n. Adding zero observations is a
// no-op.
func (h *IntHist) AddN(v int, n uint64) {
	if n == 0 {
		return
	}
	if uint(v) < denseSpan {
		if h.small == nil {
			h.small = make([]uint64, denseSpan)
		}
		if h.small[v] == 0 {
			h.distinct++
		}
		h.small[v] += n
	} else {
		if h.big == nil {
			h.big = make(map[int]uint64)
		}
		h.big[v] += n
	}
	h.total += n
}

// Count returns the number of observations of value v.
func (h *IntHist) Count(v int) uint64 {
	if uint(v) < denseSpan {
		if h.small == nil {
			return 0
		}
		return h.small[v]
	}
	return h.big[v]
}

// Total returns the number of observations across all values.
func (h *IntHist) Total() uint64 { return h.total }

// Distinct returns the number of distinct values observed.
func (h *IntHist) Distinct() int { return h.distinct + len(h.big) }

// Values returns the observed values in increasing order.
func (h *IntHist) Values() []int {
	return h.AppendValues(make([]int, 0, h.Distinct()))
}

// AppendValues appends the observed values in increasing order to dst and
// returns the extended slice. Passing a reused scratch slice (dst[:0]) makes
// repeated CDF rendering allocation-free.
func (h *IntHist) AppendValues(dst []int) []int {
	start := len(dst)
	for v := range h.big {
		if v < 0 {
			dst = append(dst, v)
		}
	}
	sort.Ints(dst[start:])
	split := len(dst)
	for v, n := range h.small {
		if n > 0 {
			dst = append(dst, v)
		}
	}
	for v := range h.big {
		if v >= 0 {
			dst = append(dst, v)
		}
	}
	sort.Ints(dst[split:])
	return dst
}

// CountLE returns the number of observations with value <= v. Unlike
// Values-based summation it allocates nothing, and its integer accumulation
// is independent of map iteration order.
func (h *IntHist) CountLE(v int) uint64 {
	var c uint64
	hi := v
	if hi >= denseSpan {
		hi = denseSpan - 1
	}
	for i := 0; i <= hi && i < len(h.small); i++ {
		c += h.small[i]
	}
	for val, n := range h.big {
		if val <= v {
			c += n
		}
	}
	return c
}

// Mean returns the weighted mean of observed values, or 0 for an empty
// histogram. The sum accumulates in integers, so the result does not depend
// on map iteration order.
func (h *IntHist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum int64
	for v, n := range h.small {
		if n > 0 {
			sum += int64(v) * int64(n)
		}
	}
	for v, n := range h.big {
		sum += int64(v) * int64(n)
	}
	return float64(sum) / float64(h.total)
}

// Merge adds all observations of other into h.
func (h *IntHist) Merge(other *IntHist) {
	for v, n := range other.small {
		if n > 0 {
			h.AddN(v, n)
		}
	}
	for v, n := range other.big {
		h.AddN(v, n)
	}
}

// Reset discards all observations, keeping the dense storage so a pooled
// histogram can be refilled without reallocating.
func (h *IntHist) Reset() {
	for i := range h.small {
		h.small[i] = 0
	}
	// Keep the overflow map and clear it in place: its buckets survive, so a
	// pooled histogram refilled with a similar value distribution stops
	// allocating on the overflow path.
	clear(h.big)
	h.distinct = 0
	h.total = 0
}

// String renders a compact "value:count" summary for debugging.
func (h *IntHist) String() string {
	vs := h.Values()
	s := "{"
	for i, v := range vs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%d:%d", v, h.Count(v))
	}
	return s + "}"
}
