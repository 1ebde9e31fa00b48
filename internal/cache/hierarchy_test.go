package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/trace"
)

// testMachine is a small hierarchy so tests can exercise every level
// without long traces: L1 4KiB, L2 16KiB, LLC 64KiB.
func testMachine() mem.Machine {
	return mem.Machine{
		Name:    "test",
		L1:      mem.MustGeometry(64, 16, 4),
		L2:      mem.MustGeometry(64, 64, 4),
		LLC:     mem.MustGeometry(64, 128, 8),
		Threads: 2,
		Lat:     mem.Latency{L1Hit: 4, L2Hit: 12, LLCHit: 40, Memory: 200},
	}
}

func TestSystemLevels(t *testing.T) {
	s := NewSystem(testMachine(), 1)
	addr := uint64(0x1000)
	if lvl := s.Access(0, addr); lvl != LevelMem {
		t.Errorf("cold access level = %s, want Mem", LevelName(lvl))
	}
	if lvl := s.Access(0, addr); lvl != LevelL1 {
		t.Errorf("hot access level = %s, want L1", LevelName(lvl))
	}
	if s.LevelHits[LevelMem] != 1 || s.LevelHits[LevelL1] != 1 {
		t.Errorf("level hits = %v", s.LevelHits)
	}
	wantCycles := uint64(200 + 4)
	if s.Cycles != wantCycles {
		t.Errorf("cycles = %d, want %d", s.Cycles, wantCycles)
	}
}

func TestSystemL2Hit(t *testing.T) {
	s := NewSystem(testMachine(), 1)
	// Evict a line from L1 (16 sets x 4 ways) but keep it in L2: touch the
	// line, then touch 4 more lines in the same L1 set that map to
	// different L2 sets.
	base := uint64(0)
	s.Access(0, base)
	for i := 1; i <= 4; i++ {
		s.Access(0, base+uint64(i)*64*16) // same L1 set (16 sets), different L2 sets (64 sets)
	}
	if lvl := s.Access(0, base); lvl != LevelL2 {
		t.Errorf("level = %s, want L2", LevelName(lvl))
	}
}

func TestSystemPrivateCaches(t *testing.T) {
	s := NewSystem(testMachine(), 2)
	addr := uint64(0x2000)
	s.Access(0, addr)
	// Core 1 misses L1/L2 (private) but hits the shared LLC.
	if lvl := s.Access(1, addr); lvl != LevelLLC {
		t.Errorf("cross-core access level = %s, want LLC", LevelName(lvl))
	}
}

// TestSystemInterleave: every recorded reference reaches the core that
// owns its stream.
func TestSystemInterleave(t *testing.T) {
	s := NewSystem(testMachine(), 2)
	s.Interleave([][]trace.Ref{{{Addr: 0x100}, {Addr: 0x100}, {Addr: 0x140}}, {{Addr: 0x100}}}, 64)
	if s.Accesses() != 4 || s.L1[0].Accesses() != 3 || s.L1[1].Accesses() != 1 {
		t.Errorf("accesses = %d (core 0: %d, core 1: %d), want 4 (3, 1)",
			s.Accesses(), s.L1[0].Accesses(), s.L1[1].Accesses())
	}
	if s.L1[0].Hits != 1 {
		t.Errorf("core 0 L1 hits = %d, want 1 (its repeated line)", s.L1[0].Hits)
	}
}

// addrs flattens interleave's schedule into the visited address sequence.
func addrs(streams [][]trace.Ref, chunk int) []uint64 {
	var got []uint64
	interleave(streams, chunk, func(_ int, refs []trace.Ref) {
		for _, r := range refs {
			got = append(got, r.Addr)
		}
	})
	return got
}

func TestInterleaveRoundRobin(t *testing.T) {
	streams := [][]trace.Ref{
		{{Addr: 1}, {Addr: 2}, {Addr: 3}},
		{{Addr: 10}, {Addr: 20}},
	}
	if got, want := addrs(streams, 1), []uint64{1, 10, 2, 20, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestInterleaveChunked(t *testing.T) {
	streams := [][]trace.Ref{
		{{Addr: 1}, {Addr: 2}, {Addr: 3}, {Addr: 4}},
		{{Addr: 10}, {Addr: 20}},
	}
	if got, want := addrs(streams, 2), []uint64{1, 2, 10, 20, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestInterleaveZeroChunk(t *testing.T) {
	streams := [][]trace.Ref{{{Addr: 1}, {Addr: 3}}, {{Addr: 2}}}
	// Must not loop forever and must treat the chunk as 1.
	if got, want := addrs(streams, 0), []uint64{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// Property: interleaving preserves per-thread order and total count, and
// visits each reference on its own thread.
func TestInterleavePreservesOrder(t *testing.T) {
	f := func(lens []uint8, chunk uint8) bool {
		if len(lens) > 8 {
			lens = lens[:8]
		}
		streams := make([][]trace.Ref, len(lens))
		total := 0
		for t := range streams {
			n := int(lens[t]) % 50
			total += n
			for i := 0; i < n; i++ {
				// Encode (thread, seq) in the address.
				streams[t] = append(streams[t], trace.Ref{Addr: uint64(t)<<32 | uint64(i)})
			}
		}
		lastSeq := make([]int64, len(streams))
		for i := range lastSeq {
			lastSeq[i] = -1
		}
		count := 0
		ok := true
		interleave(streams, int(chunk)%5, func(th int, refs []trace.Ref) {
			for _, r := range refs {
				count++
				seq := int64(r.Addr & 0xffffffff)
				if int(r.Addr>>32) != th || seq != lastSeq[th]+1 {
					ok = false
				}
				lastSeq[th] = seq
			}
		})
		return ok && count == total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSystemMissesAt(t *testing.T) {
	s := NewSystem(testMachine(), 2)
	s.Access(0, 0)
	s.Access(1, 64)
	if s.MissesAt(LevelL1) != 2 || s.MissesAt(LevelL2) != 2 || s.MissesAt(LevelLLC) != 2 {
		t.Errorf("misses = %d/%d/%d, want 2/2/2",
			s.MissesAt(LevelL1), s.MissesAt(LevelL2), s.MissesAt(LevelLLC))
	}
	if s.MissesAt(LevelMem) != 0 {
		t.Error("MissesAt(Mem) should be 0")
	}
}

func TestReductionAndSpeedup(t *testing.T) {
	m := testMachine()
	orig, opt := NewSystem(m, 1), NewSystem(m, 1)
	// Original: 10 distinct lines (10 misses). Optimized: 1 line 10 times.
	for i := 0; i < 10; i++ {
		orig.Access(0, uint64(i)*64)
		opt.Access(0, 0)
	}
	if got := Reduction(orig, opt, LevelL1); got != 90 {
		t.Errorf("L1 reduction = %g%%, want 90%%", got)
	}
	if sp := Speedup(orig, opt); sp <= 1 {
		t.Errorf("speedup = %g, want > 1", sp)
	}
}

func TestReductionZeroBaseline(t *testing.T) {
	m := testMachine()
	a, b := NewSystem(m, 1), NewSystem(m, 1)
	if got := Reduction(a, b, LevelL1); got != 0 {
		t.Errorf("reduction with empty baseline = %g, want 0", got)
	}
	if got := Speedup(a, b); got != 0 {
		t.Errorf("speedup with empty opt = %g, want 0", got)
	}
}

func TestNewSystemPanicsOnZeroCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSystem(0 cores) should panic")
		}
	}()
	NewSystem(testMachine(), 0)
}

func TestLevelName(t *testing.T) {
	names := []string{"L1", "L2", "LLC", "Mem"}
	for i, want := range names {
		if got := LevelName(i); got != want {
			t.Errorf("LevelName(%d) = %q, want %q", i, got, want)
		}
	}
}

func BenchmarkSystemAccess(b *testing.B) {
	s := NewSystem(mem.Skylake(), 1)
	for i := 0; i < b.N; i++ {
		s.Access(0, uint64(i)*64)
	}
}
