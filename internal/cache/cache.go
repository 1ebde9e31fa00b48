// Package cache is a trace-driven set-associative cache simulator.
//
// It plays the role Dinero IV plays in the paper: given the exact memory
// reference stream of a kernel, it produces the exact miss sequence (with
// per-set attribution) that grounds the RCD metric, classifies misses into
// cold/capacity/conflict, and models multi-level hierarchies (private
// L1/L2 per core, shared LLC) for the cache-miss-reduction and speedup
// experiments.
package cache

import (
	"fmt"
	"math/rand"

	"repro/internal/mem"
)

// Policy selects the replacement policy of a cache.
type Policy uint8

// Replacement policies. LRU is the default and what the paper's analysis
// assumes; FIFO and Random exist for the ablation study.
const (
	LRU Policy = iota
	FIFO
	Random
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

type way struct {
	tag   uint64
	valid bool
	stamp uint64 // LRU: last-use time; FIFO: insertion time
}

// invalidLine fills empty LRU slots. No reachable address produces it: a
// line number is addr shifted right by offsetBits, so whenever lines span at
// least two bytes the line number has a zero high bit and can never equal
// ^0. The degenerate 1-byte-line geometry falls back to the stamp-based
// representation instead.
const invalidLine = ^uint64(0)

// Cache simulates one level of a set-associative cache.
//
// The LRU policy (the default, and the paper's model) uses a
// struct-of-arrays representation: per set, a recency-ordered segment of
// exactly Ways line numbers, MRU first, with empty slots holding invalidLine
// (empty slots only ever trail the valid entries). Storing full line numbers
// rather than tags keeps the probe to a single shift-and-compare — set bits
// are equal within a segment, so line equality is tag equality. A hit moves
// the line to the front; the victim of a miss is the last entry of the
// segment — the LRU line, or an empty slot while the set is filling. This is observationally
// identical to stamp-based LRU — same hit/miss outcomes, same per-set
// statistics, same evicted-line sequence — but the probe loop scans 8
// contiguous bytes per way instead of a 24-byte struct, a set's segment is
// exactly one cache line at the default 8-way geometry, and the common case
// (MRU re-reference) touches one word. FIFO and Random, which exist for the
// ablation study only, keep the stamp-based array-of-structs path.
type Cache struct {
	Geom   mem.Geometry
	policy Policy
	rng    *rand.Rand

	// LRU representation: Sets*Ways line numbers, set-major, each set's
	// segment ordered MRU→LRU with invalidLine padding. Nil when the policy
	// (or a degenerate geometry) uses the stamp representation.
	lines []uint64

	// Geometry bit math hoisted out of mem.Geometry so the fused loops use
	// locals: line = addr>>offBits, set = line&setMask, tag = line>>setBits.
	offBits uint
	setBits uint
	setMask uint64
	ways    int

	// Stamp-based representation (FIFO, Random, degenerate LRU).
	sets  []way // Sets*Ways entries, set-major
	clock uint64

	// Statistics, exported for cheap access.
	Hits      uint64
	Misses    uint64
	SetMisses []uint64 // per-set miss counts (Figure 3-b histogram)
	SetHits   []uint64
}

// New returns an empty cache with the given geometry and policy. The rng is
// only used by the Random policy; pass nil otherwise (a deterministic
// source is created if Random is selected with a nil rng).
func New(g mem.Geometry, p Policy, rng *rand.Rand) *Cache {
	if p == Random && rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	c := &Cache{
		Geom:      g,
		policy:    p,
		rng:       rng,
		offBits:   g.OffsetBits(),
		setBits:   g.SetBits(),
		setMask:   g.SetMask(),
		ways:      g.Ways,
		SetMisses: make([]uint64, g.Sets),
		SetHits:   make([]uint64, g.Sets),
	}
	if p == LRU && g.OffsetBits() > 0 {
		c.lines = make([]uint64, g.Sets*g.Ways)
		for i := range c.lines {
			c.lines[i] = invalidLine
		}
	} else {
		c.sets = make([]way, g.Sets*g.Ways)
	}
	return c
}

// Result describes the outcome of one cache access.
type Result struct {
	Hit     bool
	Evicted bool   // whether a valid line was evicted
	Victim  uint64 // line address of the evicted line, if Evicted
}

// Access simulates a reference to addr and returns the outcome. Loads and
// stores are treated alike (allocate-on-miss, no write-back traffic), which
// matches the paper's use of Dinero for miss-sequence extraction.
func (c *Cache) Access(addr uint64) Result {
	hit, set, victimTag, evicted := c.access(addr)
	if hit {
		return Result{Hit: true}
	}
	var res Result
	if evicted {
		res.Evicted = true
		res.Victim = c.Geom.Compose(victimTag, set, 0)
	}
	return res
}

// AccessHit simulates a reference to addr and reports only whether it hit.
// It is the per-reference variant of Access for consumers that never look
// at the victim (BlockMisses batches it for whole blocks): state updates
// and statistics are identical, but no Result is materialized and the
// evicted line address is never reconstructed.
func (c *Cache) AccessHit(addr uint64) bool {
	hit, _, _, _ := c.access(addr)
	return hit
}

// access is the shared simulation core of Access and AccessHit.
func (c *Cache) access(addr uint64) (hit bool, set int, victimTag uint64, evicted bool) {
	if c.lines != nil {
		return c.accessLRU(addr)
	}
	c.clock++
	set = c.Geom.Set(addr)
	tag := c.Geom.Tag(addr)
	ways := c.sets[set*c.Geom.Ways : (set+1)*c.Geom.Ways]

	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.Hits++
			c.SetHits[set]++
			if c.policy == LRU {
				ways[i].stamp = c.clock
			}
			return true, set, 0, false
		}
	}

	c.Misses++
	c.SetMisses[set]++

	victim := 0
	switch {
	case c.policy == Random:
		// Prefer an invalid way; otherwise evict a random way.
		victim = -1
		for i := range ways {
			if !ways[i].valid {
				victim = i
				break
			}
		}
		if victim < 0 {
			victim = c.rng.Intn(len(ways))
		}
	default: // LRU and FIFO: evict the way with the smallest stamp;
		// invalid ways have stamp 0 and are naturally chosen first.
		for i := 1; i < len(ways); i++ {
			if !ways[i].valid {
				victim = i
				break
			}
			if ways[i].stamp < ways[victim].stamp {
				victim = i
			}
		}
	}

	victimTag, evicted = ways[victim].tag, ways[victim].valid
	ways[victim] = way{tag: tag, valid: true, stamp: c.clock}
	return false, set, victimTag, evicted
}

// accessLRU is the move-to-front simulation core for the LRU policy.
func (c *Cache) accessLRU(addr uint64) (hit bool, set int, victimTag uint64, evicted bool) {
	line := addr >> c.offBits
	set = int(line & c.setMask)
	base := set * c.ways
	seg := c.lines[base : base+c.ways : base+c.ways]

	for j := range seg {
		if seg[j] == line {
			c.Hits++
			c.SetHits[set]++
			copy(seg[1:j+1], seg[:j])
			seg[0] = line
			return true, set, 0, false
		}
	}

	c.Misses++
	c.SetMisses[set]++

	victimLine := seg[len(seg)-1]
	copy(seg[1:], seg[:len(seg)-1])
	seg[0] = line
	return false, set, victimLine >> c.setBits, victimLine != invalidLine
}

// BlockMisses simulates every address in addrs in order and appends the
// index of each miss to dst, returning the extended slice. Hit/miss
// outcomes, replacement state, and all statistics evolve exactly as if each
// address were passed to AccessHit individually; only the loop is fused —
// geometry bit math, the tag probe, the LRU update, and the statistics all
// happen in one pass with the hot state held in locals. This is the cache
// half of the fused sample+classify pass, where the PMU sampler consumes
// the returned miss indices, and of the advisor's cost model, whose L2
// classifies the L1's misses a block at a time.
//
// dst is typically a reused scratch slice (pass dst[:0]); BlockMisses
// allocates only when it must grow.
func (c *Cache) BlockMisses(addrs []uint64, dst []int32) []int32 {
	if c.lines == nil {
		for i := range addrs {
			if !c.AccessHit(addrs[i]) {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	if c.ways == 8 {
		return c.blockMisses8(addrs, dst)
	}
	var (
		offBits            = c.offBits
		setMask            = c.setMask
		ways               = c.ways
		lines              = c.lines
		setHits, setMisses = c.SetHits, c.SetMisses
		hits, misses       uint64
	)
	for i := 0; i < len(addrs); i++ {
		line := addrs[i] >> offBits
		set := int(line & setMask)
		base := set * ways
		seg := lines[base : base+ways : base+ways]
		if seg[0] == line {
			// MRU re-reference: the dominant case in loop nests — one
			// comparison, no reorder.
			hits++
			setHits[set]++
			continue
		}
		hit := false
		for j := 1; j < len(seg); j++ {
			if seg[j] == line {
				hits++
				setHits[set]++
				copy(seg[1:j+1], seg[:j])
				seg[0] = line
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		misses++
		setMisses[set]++
		copy(seg[1:], seg[:len(seg)-1])
		seg[0] = line
		dst = append(dst, int32(i))
	}
	c.Hits += hits
	c.Misses += misses
	return dst
}

// blockMisses8 is BlockMisses specialized for 8-way sets — the default L1
// and the cost model's L2. The probe is fully unrolled over the fixed
// 8-slot segment (one 64-byte cache line per set): a hit at depth d costs
// d+1 compares and d register-to-register moves, a miss costs 8 compares
// and a 7-element shift, and no path creates a variable-length slice, calls
// memmove, or consults a fill count (empty slots hold invalidLine, which no
// reachable address produces).
func (c *Cache) blockMisses8(addrs []uint64, dst []int32) []int32 {
	var (
		offBits            = c.offBits
		setMask            = c.setMask
		lines              = c.lines
		setHits, setMisses = c.SetHits, c.SetMisses
		hits, misses       uint64
	)
	// Unreachable by construction (New sizes every array from the geometry),
	// but it teaches the bounds-check prover that set <= setMask indexes the
	// stat arrays in range, removing the per-reference checks below. The set
	// index stays in the uint64 domain for the same reason: an int conversion
	// would hide the <= setMask bound from the prover.
	if uint64(len(setHits)) <= setMask || uint64(len(setMisses)) <= setMask ||
		uint64(len(lines))>>3 <= setMask {
		return dst
	}
	// Reserve worst-case miss capacity up front so the miss path stores by
	// index instead of re-checking append capacity per miss.
	nd := len(dst)
	if cap(dst) < nd+len(addrs) {
		grown := make([]int32, nd, nd+len(addrs))
		copy(grown, dst)
		dst = grown
	}
	d := dst[:cap(dst)]
	for i := 0; i < len(addrs); i++ {
		line := addrs[i] >> offBits
		set := line & setMask
		base := set << 3
		seg := (*[8]uint64)(lines[base:])
		if seg[0] == line {
			hits++
			setHits[set]++
			continue
		}
		if seg[1] == line {
			seg[1] = seg[0]
			seg[0] = line
			hits++
			setHits[set]++
			continue
		}
		if seg[2] == line {
			seg[2], seg[1] = seg[1], seg[0]
			seg[0] = line
			hits++
			setHits[set]++
			continue
		}
		if seg[3] == line {
			seg[3], seg[2], seg[1] = seg[2], seg[1], seg[0]
			seg[0] = line
			hits++
			setHits[set]++
			continue
		}
		if seg[4] == line {
			seg[4], seg[3], seg[2], seg[1] = seg[3], seg[2], seg[1], seg[0]
			seg[0] = line
			hits++
			setHits[set]++
			continue
		}
		if seg[5] == line {
			seg[5], seg[4], seg[3], seg[2], seg[1] = seg[4], seg[3], seg[2], seg[1], seg[0]
			seg[0] = line
			hits++
			setHits[set]++
			continue
		}
		if seg[6] == line {
			seg[6], seg[5], seg[4], seg[3], seg[2], seg[1] = seg[5], seg[4], seg[3], seg[2], seg[1], seg[0]
			seg[0] = line
			hits++
			setHits[set]++
			continue
		}
		if seg[7] == line {
			seg[7], seg[6], seg[5], seg[4], seg[3], seg[2], seg[1] = seg[6], seg[5], seg[4], seg[3], seg[2], seg[1], seg[0]
			seg[0] = line
			hits++
			setHits[set]++
			continue
		}
		misses++
		setMisses[set]++
		seg[7], seg[6], seg[5], seg[4], seg[3], seg[2], seg[1] = seg[6], seg[5], seg[4], seg[3], seg[2], seg[1], seg[0]
		seg[0] = line
		d[nd] = int32(i)
		nd++
	}
	c.Hits += hits
	c.Misses += misses
	return d[:nd]
}

// Accesses returns the total number of accesses simulated.
func (c *Cache) Accesses() uint64 { return c.Hits + c.Misses }

// MissRatio returns Misses/Accesses, or 0 before any access.
func (c *Cache) MissRatio() float64 {
	if n := c.Accesses(); n > 0 {
		return float64(c.Misses) / float64(n)
	}
	return 0
}

// SetsUsed returns how many distinct sets have received at least one miss —
// the "# of Cache Sets utilized" column of Table 4.
func (c *Cache) SetsUsed() int {
	n := 0
	for _, m := range c.SetMisses {
		if m > 0 {
			n++
		}
	}
	return n
}

// Reset empties the cache and clears all statistics. A Reset cache is
// indistinguishable from a freshly constructed one, which is what lets the
// sweep path pool and reuse simulator state across tasks.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = invalidLine
	}
	for i := range c.sets {
		c.sets[i] = way{}
	}
	c.clock = 0
	c.Hits, c.Misses = 0, 0
	for i := range c.SetMisses {
		c.SetMisses[i] = 0
		c.SetHits[i] = 0
	}
}
