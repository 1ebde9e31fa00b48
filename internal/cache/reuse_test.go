package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// The reuse-distance tracker is a test oracle: no product path computes
// reuse distances, but TestReuseVsFullyAssociative holds the classifier's
// fully-associative shadow to it.

// InfiniteReuse marks the first-ever access to a line in a reuse-distance
// profile (no previous use exists).
const InfiniteReuse = -1

// ReuseTracker computes exact reuse distances: for each access, the number
// of *distinct* cache lines referenced since the previous access to the
// same line. Reuse distance models capacity misses (a reuse distance larger
// than the cache's line capacity misses in a fully-associative LRU cache),
// which is the baseline capacity analysis the paper contrasts RCD with.
//
// The implementation is the classical Bennett–Kruskal algorithm: a Fenwick
// tree over access timestamps holding a 1 at the timestamp of each line's
// most recent access.
type ReuseTracker struct {
	geom mem.Geometry
	last map[uint64]int // line -> timestamp of most recent access
	bit  []int          // Fenwick tree, 1-indexed
	time int
}

// NewReuseTracker returns a tracker for lines of geometry g.
func NewReuseTracker(g mem.Geometry) *ReuseTracker {
	return &ReuseTracker{geom: g, last: make(map[uint64]int), bit: make([]int, 1)}
}

func (rt *ReuseTracker) add(i, delta int) {
	for ; i < len(rt.bit); i += i & (-i) {
		rt.bit[i] += delta
	}
}

func (rt *ReuseTracker) sum(i int) int {
	s := 0
	for ; i > 0; i -= i & (-i) {
		s += rt.bit[i]
	}
	return s
}

// Access records a reference to addr and returns its reuse distance, or
// InfiniteReuse on first use of the line.
func (rt *ReuseTracker) Access(addr uint64) int {
	line := rt.geom.LineNumber(addr)
	rt.time++
	// Grow the Fenwick tree by doubling. New internal nodes must absorb
	// the prefix contributions of live positions, so rebuild from rt.last
	// (amortized O(log n) per access).
	if rt.time >= len(rt.bit) {
		size := len(rt.bit) * 2
		for rt.time >= size {
			size *= 2
		}
		rt.bit = make([]int, size)
		for _, t := range rt.last {
			rt.add(t, 1)
		}
	}

	dist := InfiniteReuse
	if t0, ok := rt.last[line]; ok {
		// Distinct lines touched strictly after t0 and before now.
		dist = rt.sum(rt.time-1) - rt.sum(t0)
		rt.add(t0, -1)
	}
	rt.last[line] = rt.time
	rt.add(rt.time, 1)
	return dist
}

func TestReuseTracker(t *testing.T) {
	rt := NewReuseTracker(mem.MustGeometry(64, 64, 8))
	l := func(i uint64) uint64 { return i * 64 }
	if d := rt.Access(l(1)); d != InfiniteReuse {
		t.Errorf("first access distance = %d, want infinite", d)
	}
	if d := rt.Access(l(1)); d != 0 {
		t.Errorf("immediate reuse distance = %d, want 0", d)
	}
	rt.Access(l(2))
	rt.Access(l(3))
	rt.Access(l(2))                   // touching 2 again: distinct since last = {3}
	if d := rt.Access(l(1)); d != 2 { // distinct lines since last use of 1: {2,3}
		t.Errorf("reuse distance = %d, want 2", d)
	}
}

func TestReuseTrackerRepeatsDontInflate(t *testing.T) {
	rt := NewReuseTracker(mem.MustGeometry(64, 64, 8))
	l := func(i uint64) uint64 { return i * 64 }
	rt.Access(l(1))
	for i := 0; i < 10; i++ {
		rt.Access(l(2)) // same line repeatedly
	}
	if d := rt.Access(l(1)); d != 1 {
		t.Errorf("distance = %d, want 1 (repeats of one line count once)", d)
	}
}

// Cross-validation: reuse distance >= ways implies a set-associative LRU
// miss is possible but reuse distance >= total lines guarantees a miss in
// the fully-associative shadow; check agreement on a random trace.
func TestReuseVsFullyAssociative(t *testing.T) {
	g := mem.MustGeometry(64, 2, 2) // 4 lines capacity
	f := func(raw []uint8) bool {
		rt := NewReuseTracker(g)
		fa := newFALRU(4)
		for _, r := range raw {
			addr := uint64(r%32) * 64
			d := rt.Access(addr)
			hit := fa.access(g.Line(addr))
			// FA-LRU hits exactly when reuse distance < capacity.
			if hit != (d != InfiniteReuse && d < 4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReuseTrackerGrowth(t *testing.T) {
	rt := NewReuseTracker(mem.MustGeometry(64, 64, 8))
	// Force several Fenwick rebuilds and verify a known distance after.
	for i := uint64(0); i < 10000; i++ {
		rt.Access(i * 64)
	}
	if d := rt.Access(0); d != 9999 {
		t.Errorf("distance after growth = %d, want 9999", d)
	}
}
