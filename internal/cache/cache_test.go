package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/stats"
)

// tiny returns a 2-set, 2-way cache of 64B lines for hand-traceable tests.
func tiny() *Cache { return New(mem.MustGeometry(64, 2, 2), LRU, nil) }

// lineAddr builds an address in the given set with the given tag for a
// 64B-line cache with the given set count.
func lineAddr(g mem.Geometry, tag uint64, set int) uint64 { return g.Compose(tag, set, 0) }

func TestColdMissThenHit(t *testing.T) {
	c := tiny()
	a := lineAddr(c.Geom, 1, 0)
	if r := c.Access(a); r.Hit {
		t.Error("first access should miss")
	}
	if r := c.Access(a); !r.Hit {
		t.Error("second access should hit")
	}
	if r := c.Access(a + 63); !r.Hit {
		t.Error("same-line access should hit")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny() // 2 ways per set
	g := c.Geom
	a := lineAddr(g, 1, 0)
	b := lineAddr(g, 2, 0)
	d := lineAddr(g, 3, 0)

	c.Access(a) // miss, set 0 = {a}
	c.Access(b) // miss, set 0 = {a,b}
	c.Access(a) // hit, a is MRU
	r := c.Access(d)
	if r.Hit {
		t.Fatal("third distinct line should miss")
	}
	if !r.Evicted || g.Tag(r.Victim) != 2 {
		t.Errorf("LRU should evict b (tag 2), got evicted=%v victim tag %d", r.Evicted, g.Tag(r.Victim))
	}
	if !c.Contains(a) || c.Contains(b) || !c.Contains(d) {
		t.Error("residency after eviction wrong")
	}
}

func TestFIFOEviction(t *testing.T) {
	c := New(mem.MustGeometry(64, 2, 2), FIFO, nil)
	g := c.Geom
	a, b, d := lineAddr(g, 1, 0), lineAddr(g, 2, 0), lineAddr(g, 3, 0)
	c.Access(a)
	c.Access(b)
	c.Access(a) // hit, but FIFO ignores recency
	r := c.Access(d)
	if !r.Evicted || g.Tag(r.Victim) != 1 {
		t.Errorf("FIFO should evict a (tag 1), got victim tag %d", g.Tag(r.Victim))
	}
}

func TestRandomPolicyStaysInSet(t *testing.T) {
	c := New(mem.MustGeometry(64, 4, 2), Random, stats.NewRand(7))
	g := c.Geom
	// Fill set 1 beyond capacity; evictions must come from set 1 only.
	for tag := uint64(1); tag <= 10; tag++ {
		r := c.Access(lineAddr(g, tag, 1))
		if r.Set != 1 {
			t.Fatalf("access landed in set %d, want 1", r.Set)
		}
		if r.Evicted && g.Set(r.Victim) != 1 {
			t.Fatalf("victim from set %d, want 1", g.Set(r.Victim))
		}
	}
	if c.SetMisses[1] != 10 {
		t.Errorf("set 1 misses = %d, want 10", c.SetMisses[1])
	}
}

func TestSetIsolation(t *testing.T) {
	c := tiny()
	g := c.Geom
	// Thrash set 0 with 3 lines; set 1's resident line must survive.
	s1 := lineAddr(g, 9, 1)
	c.Access(s1)
	for tag := uint64(1); tag <= 3; tag++ {
		c.Access(lineAddr(g, tag, 0))
	}
	if !c.Contains(s1) {
		t.Error("set 0 traffic evicted a set 1 line")
	}
}

func TestStatsAndReset(t *testing.T) {
	c := tiny()
	g := c.Geom
	c.Access(lineAddr(g, 1, 0))
	c.Access(lineAddr(g, 1, 0))
	c.Access(lineAddr(g, 2, 1))
	if c.Accesses() != 3 {
		t.Errorf("Accesses = %d, want 3", c.Accesses())
	}
	if got := c.MissRatio(); got != 2.0/3 {
		t.Errorf("MissRatio = %g", got)
	}
	if c.SetsUsed() != 2 {
		t.Errorf("SetsUsed = %d, want 2", c.SetsUsed())
	}
	c.Reset()
	if c.Accesses() != 0 || c.SetsUsed() != 0 || c.MissRatio() != 0 {
		t.Error("Reset did not clear stats")
	}
	if c.Contains(lineAddr(g, 1, 0)) {
		t.Error("Reset did not clear contents")
	}
}

// Property: a working set of at most Ways lines per set never misses after
// the first round, for any policy (all policies keep a referenced line
// resident until an eviction is forced).
func TestNoEvictionWithinAssociativity(t *testing.T) {
	for _, p := range []Policy{LRU, FIFO, Random} {
		c := New(mem.MustGeometry(64, 4, 4), p, stats.NewRand(3))
		g := c.Geom
		var addrs []uint64
		for set := 0; set < 4; set++ {
			for tag := uint64(0); tag < 4; tag++ {
				addrs = append(addrs, lineAddr(g, tag, set))
			}
		}
		for _, a := range addrs { // warm
			c.Access(a)
		}
		for round := 0; round < 3; round++ {
			for _, a := range addrs {
				if !c.Access(a).Hit {
					t.Errorf("policy %v: miss on resident working set", p)
				}
			}
		}
	}
}

// Property: miss count is monotone non-increasing in associativity for LRU
// on any short trace within one set region (stack property of LRU).
func TestLRUStackProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		g2 := mem.MustGeometry(64, 1, 2)
		g4 := mem.MustGeometry(64, 1, 4)
		c2, c4 := New(g2, LRU, nil), New(g4, LRU, nil)
		for _, r := range raw {
			addr := uint64(r%16) * 64
			c2.Access(addr)
			c4.Access(addr)
		}
		return c4.Misses <= c2.Misses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Random.String() != "Random" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should still print")
	}
}

func TestMissKindString(t *testing.T) {
	names := map[MissKind]string{Hit: "hit", Cold: "cold", Capacity: "capacity", Conflict: "conflict"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestClassifierColdCapacityConflict(t *testing.T) {
	// 2 sets x 2 ways = 4 lines total capacity.
	cl := NewClassifier(mem.MustGeometry(64, 2, 2))
	g := cl.Cache.Geom

	// Three lines all in set 0: the third insert evicts, and re-touching
	// the first is a CONFLICT miss (fully-assoc cache of 4 lines would
	// have kept it).
	a, b, d := lineAddr(g, 1, 0), lineAddr(g, 2, 0), lineAddr(g, 3, 0)
	for _, addr := range []uint64{a, b, d} {
		if k := cl.Access(addr); k != Cold {
			t.Errorf("first touch of %#x = %v, want cold", addr, k)
		}
	}
	if k := cl.Access(a); k != Conflict {
		t.Errorf("re-touch of evicted line = %v, want conflict", k)
	}

	// Capacity miss: stream 8 more distinct lines (> total capacity),
	// then re-touch b — the fully-associative shadow has also dropped it.
	for tag := uint64(10); tag < 18; tag++ {
		cl.Access(lineAddr(g, tag, int(tag)%2))
	}
	if k := cl.Access(b); k != Capacity {
		t.Errorf("re-touch after capacity stream = %v, want capacity", k)
	}

	if cl.Counts[Cold] != 11 {
		t.Errorf("cold count = %d, want 11", cl.Counts[Cold])
	}
	if cl.Counts[Conflict] != 1 || cl.Counts[Capacity] != 1 {
		t.Errorf("conflict=%d capacity=%d, want 1/1", cl.Counts[Conflict], cl.Counts[Capacity])
	}
	if cl.ConflictRatio() <= 0 {
		t.Error("conflict ratio should be positive")
	}
}

func TestClassifierHits(t *testing.T) {
	cl := NewClassifier(mem.MustGeometry(64, 2, 2))
	a := uint64(0)
	cl.Access(a)
	if k := cl.Access(a); k != Hit {
		t.Errorf("second access = %v, want hit", k)
	}
	if cl.Counts[Hit] != 1 {
		t.Errorf("hit count = %d", cl.Counts[Hit])
	}
}

// Property: classifier counts always sum to total accesses, and every
// conflict miss implies the line was seen before.
func TestClassifierCountsConsistent(t *testing.T) {
	f := func(raw []uint8) bool {
		cl := NewClassifier(mem.MustGeometry(64, 2, 2))
		for _, r := range raw {
			cl.Access(uint64(r) * 64)
		}
		var sum uint64
		for _, c := range cl.Counts {
			sum += c
		}
		return sum == uint64(len(raw)) &&
			cl.Cache.Misses == cl.Counts[Cold]+cl.Counts[Capacity]+cl.Counts[Conflict]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := New(mem.L1Default(), LRU, nil)
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i) * 64)
	}
}

func BenchmarkClassifierAccess(b *testing.B) {
	cl := NewClassifier(mem.L1Default())
	for i := 0; i < b.N; i++ {
		cl.Access(uint64(i%4096) * 64)
	}
}
