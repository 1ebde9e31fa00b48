package pmu

import "repro/internal/obs"

// ObserveInto merges this sampler's shard-local counters into reg: refs
// streamed, L1-miss events raised, samples delivered, and the
// private L1's hit/miss statistics (per-set distributions included).
//
// The sampler's hot path never touches the registry — counting stays in
// plain per-sampler fields — so call this once per profiled thread at
// reassembly time (core.ProfileProgram does). Totals are sums of
// deterministic per-shard counts, hence identical at any worker count.
func (s *Sampler) ObserveInto(reg *obs.Registry) {
	reg.Counter("pmu.refs").Add(s.Refs)
	reg.Counter("pmu.events").Add(s.Events)
	reg.Counter("pmu.samples").Add(s.count)
	if s.cfg.Faults != nil {
		reg.Counter("pmu.fault_dropped").Add(s.FaultDropped)
		reg.Counter("pmu.fault_truncated").Add(s.FaultTruncated)
		reg.Counter("pmu.fault_corrupted").Add(s.FaultCorrupted)
	}
	s.l1.ObserveInto(reg, "pmu.l1")
}

// ObserveInto merges the L2 sampler's counters into reg: refs, L2-miss
// events, samples, and both cache levels' statistics under "pmu.l2x".
func (s *L2Sampler) ObserveInto(reg *obs.Registry) {
	reg.Counter("pmu.l2x.refs").Add(s.Refs)
	reg.Counter("pmu.l2x.events").Add(s.Events)
	reg.Counter("pmu.l2x.samples").Add(uint64(len(s.Samples)))
	s.l1.ObserveInto(reg, "pmu.l2x.l1")
	s.l2.ObserveInto(reg, "pmu.l2x.l2")
}
