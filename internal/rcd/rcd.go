// Package rcd implements Re-Conflict Distance, the metric at the core of
// CCProf (Definition 1 of the paper).
//
// The Re-Conflict Distance of a cache set S within a program context is the
// distance, counted in cache-miss events, between two consecutive misses on
// S. With perfectly balanced set usage — misses visiting the N sets round-
// robin — every set's RCD equals N (Observation 2); an RCD below N marks S
// as the victim of imbalanced cache utilization, and a large fraction of
// misses at short RCD is the signature of conflict misses (Observation 3).
//
// The same Tracker serves both measurement paths the paper compares: fed
// with the exact miss sequence from the cache simulator it produces exact
// RCDs; fed with the lossy subsequence from PMU address sampling it produces
// the approximate RCDs CCProf uses in production. RCD needs no knowledge of
// miss *types*: frequent capacity misses concentrated on a few sets are
// reported as conflicts on those sets by design (§3.3).
package rcd

import (
	"fmt"

	"repro/internal/stats"
)

// NoPrior is returned by Observe for the first miss on a set, when no
// re-conflict distance is defined yet.
const NoPrior = -1

// DefaultThreshold is the short-RCD threshold T used throughout the paper's
// evaluation: misses with RCD <= 8 on an L1 with 64 sets count as "short".
const DefaultThreshold = 8

// Tracker accumulates the RCD distribution of one program context (a loop,
// function, or whole program).
type Tracker struct {
	sets    int
	lastPos []uint64 // 1-based position of the previous miss on each set; 0 = none
	pos     uint64   // misses observed so far

	pooled stats.IntHist // all sets pooled, what the CDF plots show
	misses []uint64      // per-set miss counts (Figure 3-b)
}

// New returns a Tracker for a cache with the given number of sets.
func New(sets int) *Tracker {
	if sets <= 0 {
		panic(fmt.Sprintf("rcd: tracker with %d sets", sets))
	}
	return &Tracker{
		sets:    sets,
		lastPos: make([]uint64, sets),
		misses:  make([]uint64, sets),
	}
}

// Reset rewinds the tracker to the state New(sets) would construct. When
// the set count is unchanged the per-set storage and the pooled histogram
// are cleared in place, so a pooled tracker is reused with zero
// allocations.
func (t *Tracker) Reset(sets int) {
	if sets <= 0 {
		panic(fmt.Sprintf("rcd: tracker with %d sets", sets))
	}
	if sets != t.sets || t.lastPos == nil {
		*t = *New(sets)
		return
	}
	clear(t.lastPos)
	clear(t.misses)
	t.pooled.Reset()
	t.pos = 0
}

// Sets returns the number of cache sets tracked.
func (t *Tracker) Sets() int { return t.sets }

// Observe records a miss on the given set and returns its RCD — the
// distance in miss events since the previous miss on the same set — or
// NoPrior for the set's first miss.
func (t *Tracker) Observe(set int) int {
	if set < 0 || set >= t.sets {
		panic(fmt.Sprintf("rcd: set %d out of range [0,%d)", set, t.sets))
	}
	t.pos++
	t.misses[set]++
	d := NoPrior
	if p := t.lastPos[set]; p != 0 {
		d = int(t.pos - p)
		t.pooled.Add(d)
	}
	t.lastPos[set] = t.pos
	return d
}

// BreakSequence forgets all per-set positions without clearing the
// accumulated histograms or totals: distances spanning the break are not
// counted. Bursty sampling calls this between bursts, because only
// within-burst sample distances are exact miss distances.
func (t *Tracker) BreakSequence() {
	for s := range t.lastPos {
		t.lastPos[s] = 0
	}
}

// Total returns the number of misses observed (including first misses that
// produced no RCD) — the N_total of Equation 1.
func (t *Tracker) Total() uint64 { return t.pos }

// SetMisses returns the miss count of one set.
func (t *Tracker) SetMisses(set int) uint64 { return t.misses[set] }

// SetsUsed returns how many sets received at least one miss.
func (t *Tracker) SetsUsed() int {
	n := 0
	for _, m := range t.misses {
		if m > 0 {
			n++
		}
	}
	return n
}

// Hist returns the pooled RCD histogram across all sets.
func (t *Tracker) Hist() *stats.IntHist { return &t.pooled }

// ShortCount returns the number of observed misses whose RCD is defined and
// at most threshold (the N_RCD of Equation 1).
func (t *Tracker) ShortCount(threshold int) uint64 {
	return t.pooled.CountLE(threshold)
}

// ContributionFactor returns the pooled contribution factor of Equation 1:
// the fraction of all observed misses whose RCD is defined and at most
// threshold. It returns 0 when nothing was observed.
func (t *Tracker) ContributionFactor(threshold int) float64 {
	if t.pos == 0 {
		return 0
	}
	return float64(t.ShortCount(threshold)) / float64(t.pos)
}

// CDF returns the cumulative distribution of pooled RCDs — the curves of
// Figures 7 and 9.
func (t *Tracker) CDF() []stats.CDFPoint { return t.pooled.CDF() }

// Imbalance returns the ratio between the busiest set's miss count and the
// mean per-set miss count: 1 means perfectly balanced traffic, large values
// mean a few victim sets absorb the misses (Observation 1).
func (t *Tracker) Imbalance() float64 {
	if t.pos == 0 {
		return 0
	}
	var max uint64
	for _, m := range t.misses {
		if m > max {
			max = m
		}
	}
	mean := float64(t.pos) / float64(t.sets)
	return float64(max) / mean
}

// VictimSets returns the sets whose miss share exceeds share times the
// uniform share 1/Sets, ordered by set index — the "victim sets" of §3.
func (t *Tracker) VictimSets(share float64) []int {
	if t.pos == 0 {
		return nil
	}
	uniform := float64(t.pos) / float64(t.sets)
	var out []int
	for s, m := range t.misses {
		if float64(m) > share*uniform {
			out = append(out, s)
		}
	}
	return out
}
