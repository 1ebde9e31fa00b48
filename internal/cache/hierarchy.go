package cache

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Level indices for System statistics.
const (
	LevelL1  = 0
	LevelL2  = 1
	LevelLLC = 2
	LevelMem = 3
)

// System simulates a multi-core cache hierarchy: private L1 and L2 per
// core and one shared LLC, with a fixed-latency cycle model. It drives the
// Table 3 experiments (cache-miss reductions per level and estimated
// speedups on the Broadwell and Skylake configurations).
type System struct {
	Machine mem.Machine
	Cores   int

	L1  []*Cache
	L2  []*Cache
	LLC *Cache

	Cycles    uint64    // accumulated cycle cost of all accesses
	LevelHits [4]uint64 // accesses serviced at L1/L2/LLC/memory
}

// NewSystem builds a system with the given number of active cores on
// machine m. It panics if cores is not positive.
func NewSystem(m mem.Machine, cores int) *System {
	if cores <= 0 {
		panic(fmt.Sprintf("cache: NewSystem with %d cores", cores))
	}
	s := &System{Machine: m, Cores: cores, LLC: New(m.LLC, LRU, nil)}
	for i := 0; i < cores; i++ {
		s.L1 = append(s.L1, New(m.L1, LRU, nil))
		s.L2 = append(s.L2, New(m.L2, LRU, nil))
	}
	return s
}

// Access simulates a reference from the given core and returns the level
// that serviced it (LevelL1..LevelMem). Lower levels are only consulted —
// and only warmed — on a miss, the usual inclusive-allocation idealization.
func (s *System) Access(core int, addr uint64) int {
	level := LevelMem
	switch {
	case s.L1[core].Access(addr).Hit:
		level = LevelL1
	case s.L2[core].Access(addr).Hit:
		level = LevelL2
	case s.LLC.Access(addr).Hit:
		level = LevelLLC
	}
	s.LevelHits[level]++
	s.Cycles += uint64(s.Machine.Lat.Cost(level))
	return level
}

// Interleave replays per-thread reference streams into the system, stream
// t on core t, visiting threads round-robin chunk references at a time. It
// approximates the memory traffic a shared cache level observes when
// several hardware threads run the same kernel on disjoint partitions,
// which is how the parallel experiments (Table 3) drive the shared LLC. A
// chunk size <= 0 is treated as 1 (perfectly fine-grained interleaving).
func (s *System) Interleave(streams [][]trace.Ref, chunk int) {
	interleave(streams, chunk, func(core int, refs []trace.Ref) {
		for _, r := range refs {
			s.Access(core, r.Addr)
		}
	})
}

// interleave is Interleave's schedule: it hands visit each thread's next
// chunk in round-robin order until every stream is exhausted.
func interleave(streams [][]trace.Ref, chunk int, visit func(t int, refs []trace.Ref)) {
	if chunk <= 0 {
		chunk = 1
	}
	for off := 0; ; off += chunk {
		progressed := false
		for t, refs := range streams {
			if off < len(refs) {
				visit(t, refs[off:min(off+chunk, len(refs))])
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

// MissesAt returns the total misses observed at a cache level across cores:
// for L1 and L2 the sum over private caches, for LLC the shared cache.
func (s *System) MissesAt(level int) uint64 {
	switch level {
	case LevelL1:
		var n uint64
		for _, c := range s.L1 {
			n += c.Misses
		}
		return n
	case LevelL2:
		var n uint64
		for _, c := range s.L2 {
			n += c.Misses
		}
		return n
	case LevelLLC:
		return s.LLC.Misses
	default:
		return 0
	}
}

// Accesses returns the total references simulated.
func (s *System) Accesses() uint64 {
	var n uint64
	for _, h := range s.LevelHits {
		n += h
	}
	return n
}

// Reduction compares two systems that ran the original and optimized
// variants of a workload and returns the miss reduction (in percent, as
// Table 3 reports: positive is better) at the given level.
func Reduction(orig, opt *System, level int) float64 {
	o := orig.MissesAt(level)
	if o == 0 {
		return 0
	}
	return 100 * (1 - float64(opt.MissesAt(level))/float64(o))
}

// Speedup returns the estimated speedup of opt over orig under the cycle
// model: cycles(orig)/cycles(opt).
func Speedup(orig, opt *System) float64 {
	if opt.Cycles == 0 {
		return 0
	}
	return float64(orig.Cycles) / float64(opt.Cycles)
}
