package cache

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// naiveLRU is an independent reference model of a set-associative LRU
// cache, written from first principles with none of the production code's
// machinery: set and tag come from plain division/modulo on the line
// number, each set is an MRU-ordered slice, and a lookup is a linear scan.
// It exists only to differentially test cache.Cache — if the two models
// ever disagree on a single access, one of them is wrong.
type naiveLRU struct {
	lineSize uint64
	sets     uint64
	ways     int
	// mru[s] lists the tags resident in set s, most recently used first.
	mru [][]uint64

	hits, misses uint64
	setMisses    []uint64
	setHits      []uint64
}

func newNaiveLRU(lineSize, sets, ways int) *naiveLRU {
	return &naiveLRU{
		lineSize:  uint64(lineSize),
		sets:      uint64(sets),
		ways:      ways,
		mru:       make([][]uint64, sets),
		setMisses: make([]uint64, sets),
		setHits:   make([]uint64, sets),
	}
}

// access simulates one reference and reports (hit, set index).
func (n *naiveLRU) access(addr uint64) (bool, int) {
	line := addr / n.lineSize
	set := line % n.sets
	tag := line / n.sets
	ways := n.mru[set]
	for i, t := range ways {
		if t == tag {
			// Hit: move to MRU position.
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			n.hits++
			n.setHits[set]++
			return true, int(set)
		}
	}
	// Miss: insert at MRU, evicting the LRU tail if the set is full.
	if len(ways) < n.ways {
		ways = append(ways, 0)
	}
	copy(ways[1:], ways)
	ways[0] = tag
	n.mru[set] = ways
	n.misses++
	n.setMisses[set]++
	return false, int(set)
}

// diffGeometries spans the shapes the pipeline actually uses (the L1
// default, an L2, a tiny direct-mapped cache, a fully-skewed 2-way).
func diffGeometries(t testing.TB) []mem.Geometry {
	t.Helper()
	return []mem.Geometry{
		mem.L1Default(),
		mem.MustGeometry(64, 1024, 8),
		mem.MustGeometry(32, 16, 1),
		mem.MustGeometry(64, 2, 2),
		mem.MustGeometry(128, 64, 4),
	}
}

// diffStream generates a reproducible address stream that mixes tight
// strided loops (the conflict-prone pattern), random lines in a small
// working set (hit-heavy), and occasional far-flung addresses (cold
// misses), including addresses that are not line-aligned.
func diffStream(seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]uint64, 0, n)
	for len(addrs) < n {
		switch rng.Intn(3) {
		case 0: // strided burst
			stride := uint64(64 << rng.Intn(6))
			base := uint64(rng.Intn(1 << 20))
			for i := 0; i < 64 && len(addrs) < n; i++ {
				addrs = append(addrs, base+uint64(i)*stride)
			}
		case 1: // small working set
			base := uint64(rng.Intn(1 << 14))
			for i := 0; i < 32 && len(addrs) < n; i++ {
				addrs = append(addrs, base+uint64(rng.Intn(1<<12)))
			}
		default: // scattered
			for i := 0; i < 16 && len(addrs) < n; i++ {
				addrs = append(addrs, rng.Uint64()>>rng.Intn(40))
			}
		}
	}
	return addrs
}

// diffCheck replays one address stream through the production cache (via
// both Access and AccessHit, which must behave identically) and the naive
// model, failing on the first diverging access.
func diffCheck(t *testing.T, g mem.Geometry, addrs []uint64) {
	t.Helper()
	prod := New(g, LRU, nil)
	prodHit := New(g, LRU, nil)
	ref := newNaiveLRU(g.LineSize, g.Sets, g.Ways)
	for i, addr := range addrs {
		res := prod.Access(addr)
		hitFast := prodHit.AccessHit(addr)
		wantHit, wantSet := ref.access(addr)
		// Each access counts once on its set, so equal counts on the naive
		// model's set after every access mean the access landed there.
		gotN, wantN := prod.SetHits[wantSet]+prod.SetMisses[wantSet], ref.setHits[wantSet]+ref.setMisses[wantSet]
		if res.Hit != wantHit || gotN != wantN {
			t.Fatalf("%v: access %d (addr %#x): Access hit=%v with %d accesses on set %d, naive model hit=%v with %d",
				g, i, addr, res.Hit, gotN, wantSet, wantHit, wantN)
		}
		if hitFast != wantHit {
			t.Fatalf("%v: access %d (addr %#x): AccessHit = %v, naive model = %v",
				g, i, addr, hitFast, wantHit)
		}
	}
	for _, c := range []*Cache{prod, prodHit} {
		if c.Hits != ref.hits || c.Misses != ref.misses {
			t.Fatalf("%v: totals diverge: cache %d/%d, naive %d/%d",
				g, c.Hits, c.Misses, ref.hits, ref.misses)
		}
		for s := 0; s < g.Sets; s++ {
			if c.SetMisses[s] != ref.setMisses[s] || c.SetHits[s] != ref.setHits[s] {
				t.Fatalf("%v: set %d stats diverge: cache (%d hits, %d misses), naive (%d, %d)",
					g, s, c.SetHits[s], c.SetMisses[s], ref.setHits[s], ref.setMisses[s])
			}
		}
	}
}

// TestDifferentialLRU fuzzes the production simulator against the naive
// reference model on randomized streams across several geometries: the
// per-access hit/miss and set sequence, and the final per-set statistics,
// must match exactly.
func TestDifferentialLRU(t *testing.T) {
	for _, g := range diffGeometries(t) {
		for seed := int64(1); seed <= 4; seed++ {
			diffCheck(t, g, diffStream(seed, 20000))
		}
	}
}

// FuzzCacheDifferential is the coverage-guided version: the fuzzer mutates
// a raw byte string that is decoded into an address stream and replayed
// through both models on every geometry.
func FuzzCacheDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte("strided access patterns collide on sets"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		addrs := make([]uint64, 0, len(data)/2)
		// Overlapping 8-byte windows squeeze more addresses (and more
		// aliasing structure) out of short inputs than disjoint chunks.
		for i := 0; i+8 <= len(data); i += 2 {
			var a uint64
			for j := 0; j < 8; j++ {
				a = a<<8 | uint64(data[i+j])
			}
			addrs = append(addrs, a)
		}
		for _, g := range diffGeometries(t) {
			diffCheck(t, g, addrs)
		}
	})
}
