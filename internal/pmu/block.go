package pmu

import (
	"math/rand"

	"repro/internal/cache"
	"repro/internal/trace"
)

// Fused sample+classify block path. A per-reference sampler would pay one
// AccessHit call (set/tag decomposition, probe, LRU update) plus sampler
// bookkeeping per access. The block path splits the work by frequency: the
// cache classifies a whole struct-of-arrays block in one fused loop
// (cache.BlockMisses), and the sampler then walks only the miss indices —
// for the paper's workloads a few percent of references — applying the
// exact event/period/burst state machine of the scalar PEBS model. That
// scalar machine lives on in the tests as the oracle FuzzBlockEquivalence
// holds this path to, at random block splits: same events, same sample
// subsequence, same fault and drop accounting.

// RefBlock implements trace.Sink: it simulates each reference against the
// private L1 and, on every period-th miss event, records a sample.
func (s *Sampler) RefBlock(b *trace.RefBlock) {
	addrs := b.Addr
	s.Refs += uint64(len(addrs))
	s.miss = s.l1.BlockMisses(addrs, s.miss[:0])
	miss := s.miss
	if len(miss) == 0 {
		return
	}
	// Fast-forward: no burst in progress and the period won't expire within
	// this block's misses — pure counter arithmetic, no per-miss work.
	if s.burst == 0 && s.next > uint64(len(miss)) {
		s.Events += uint64(len(miss))
		s.next -= uint64(len(miss))
		return
	}
	ips := b.IP
	// Outside a burst the state machine is pure countdown: the next sample
	// fires at the s.next-th miss from here, and every miss in between only
	// increments Events. Jump whole periods at a time — the walk is O(samples
	// + burst misses) rather than O(misses).
	cur := 0
	for cur < len(miss) {
		if s.burst == 0 {
			left := uint64(len(miss) - cur)
			if s.next > left {
				s.Events += left
				s.next -= left
				return
			}
			s.Events += s.next
			cur += int(s.next) - 1
			i := miss[cur]
			cur++
			s.next = s.drawPeriod()
			if s.cfg.Burst > 1 {
				s.burst = s.cfg.Burst - 1
			}
			s.deliver(trace.Ref{IP: ips[i], Addr: addrs[i]})
			continue
		}
		i := miss[cur]
		cur++
		s.Events++
		s.burst--
		s.deliver(trace.Ref{IP: ips[i], Addr: addrs[i]})
	}
}

// Reconfigure rewinds the sampler to the state NewSampler(cfg) would
// construct, reusing its allocations: the private L1 is Reset in place when
// the geometry matches (reallocated otherwise), the RNG is reseeded, every
// counter is zeroed, and the sample buffer is truncated without releasing
// its storage. It exists so sweeps can pool samplers across tasks; a
// reconfigured sampler is observationally identical to a fresh one, which
// is what keeps pooling invisible to results.
func (s *Sampler) Reconfigure(cfg Config) {
	if cfg.Period == nil {
		cfg.Period = Uniform(DefaultPeriod)
	}
	if s.l1 != nil && s.l1.Geom == cfg.Geom {
		s.l1.Reset()
	} else {
		s.l1 = cache.New(cfg.Geom, cache.LRU, nil)
	}
	s.cfg = cfg
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		s.rng.Seed(cfg.Seed)
	}
	s.burst = 0
	s.Events, s.Refs = 0, 0
	s.FaultDropped, s.FaultTruncated, s.FaultCorrupted = 0, 0, 0
	s.Samples = s.Samples[:0]
	s.Handler = nil
	s.count, s.raised = 0, 0
	s.next = s.drawPeriod()
}
