// Package baseline implements the conflict-miss detectors CCProf is
// compared against in the paper's related-work discussion (§7.1), so the
// comparison itself is runnable:
//
//   - MST, the hardware miss-classification table of Collins & Tullsen
//     ("Hardware identification of cache conflict misses", MICRO 1999): a
//     per-set table remembers the tag most recently evicted from the set;
//     a subsequent miss on the same (set, tag) is classified a conflict
//     miss. MST needs full-trace visibility (it is proposed as hardware),
//     so it plays in the simulator lane, not the sampling lane.
//
//   - A DProf-style detector (Pesterev et al., EuroSys 2010): statistical
//     reasoning over sampled misses, but — as the paper criticizes —
//     assuming the workload is uniform over time: it inspects the *global*
//     per-set miss histogram and flags a conflict when some sets absorb
//     far more than the uniform share. Workloads whose victim set rotates
//     (ADI's column sweep, NW's tile wavefronts) look balanced globally
//     and escape it; CCProf's RCD keeps the temporal signature and does
//     not.
package baseline

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// MST is the miss-classification-table detector. It wraps an L1 model and
// observes every reference (trace.Sink).
type MST struct {
	l1   *cache.Cache
	geom mem.Geometry
	last []uint64 // per set: tag of the most recently evicted line, +1
	// Misses counts all misses, Conflicts the misses MST classifies as
	// conflict (victim re-referenced).
	Misses    uint64
	Conflicts uint64
}

// NewMST returns a detector over a fresh LRU cache with geometry g.
func NewMST(g mem.Geometry) *MST {
	return &MST{
		l1:   cache.New(g, cache.LRU, nil),
		geom: g,
		last: make([]uint64, g.Sets),
	}
}

// RefBlock implements trace.Sink.
func (m *MST) RefBlock(b *trace.RefBlock) {
	for _, addr := range b.Addr {
		set := m.geom.Set(addr)
		tag := m.geom.Tag(addr)
		res := m.l1.Access(addr)
		if res.Hit {
			continue
		}
		m.Misses++
		if m.last[set] == tag+1 {
			m.Conflicts++
		}
		if res.Evicted {
			m.last[set] = m.geom.Tag(res.Victim) + 1
		}
	}
}

// ConflictRatio returns the fraction of misses classified as conflicts.
func (m *MST) ConflictRatio() float64 {
	if m.Misses == 0 {
		return 0
	}
	return float64(m.Conflicts) / float64(m.Misses)
}

// Verdict applies the detection threshold: a workload suffers from
// conflict misses when at least frac of its misses are MST-conflicts.
func (m *MST) Verdict(frac float64) bool { return m.ConflictRatio() >= frac }

// DProf is the uniformity-assuming sampled detector. Feed it the cache set
// of every sampled miss.
type DProf struct {
	hist  stats.IntHist
	sets  int
	total uint64
}

// NewDProf returns a detector for a cache with the given set count.
func NewDProf(sets int) *DProf {
	return &DProf{sets: sets}
}

// Observe records one sampled miss on the given set.
func (d *DProf) Observe(set int) {
	d.hist.Add(set)
	d.total++
}

// Imbalance returns the busiest set's share over the uniform share,
// computed on the whole-run histogram (no temporal information).
func (d *DProf) Imbalance() float64 {
	if d.total == 0 {
		return 0
	}
	var max uint64
	for _, s := range d.hist.Values() {
		if c := d.hist.Count(s); c > max {
			max = c
		}
	}
	return float64(max) * float64(d.sets) / float64(d.total)
}

// Verdict flags a conflict when the global imbalance exceeds factor (a
// typical setting is 4: some set receives over 4x the uniform share).
func (d *DProf) Verdict(factor float64) bool { return d.Imbalance() >= factor }
