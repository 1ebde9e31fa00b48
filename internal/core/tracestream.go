package core

import (
	"fmt"
	"io"

	"repro/internal/mem"
	"repro/internal/parsim"
	"repro/internal/pmu"
	"repro/internal/trace"
)

// Sharded trace profiling: profile a recorded framed trace (trace.CCTB)
// instead of a live workload, split into frame-aligned segments that run as
// independent parsim tasks. Frames are self-contained (deltas reset per
// frame), so a shard enters the stream at any trace.StreamPos boundary
// without replaying the prefix; the segment index, the per-shard derived
// seeds, and the JSON-serializable shard results together make the sweep
// checkpointable — a run killed mid-trace resumes with parsim.Checkpoint
// and re-profiles only the segments that never completed.
//
// Each segment gets its own sampler (private L1 model, derived seed), so
// segments are the unit of both parallelism and restartability. The
// resulting Profile treats shards as threads: RCD sequences break at
// segment boundaries, exactly as they break at thread boundaries in a
// multi-threaded profile. That semantics is a deterministic function of
// (trace, seed, segment size) alone — never of worker count, scheduling, or
// how many shards were restored from a checkpoint.

// TraceProfileOptions configures ProfileTrace. The zero value profiles with
// the default L1 geometry, the paper's mean sampling period, and
// DefaultSegmentFrames frames per shard.
type TraceProfileOptions struct {
	Geom   mem.Geometry   // zero value selects mem.L1Default()
	Period pmu.PeriodDist // nil selects pmu.Uniform(pmu.DefaultPeriod)
	Seed   int64
	// Burst captures bursts of consecutive miss events per period expiry,
	// as in ProfileOptions.
	Burst int
	// SegmentFrames is the shard granularity in trace frames; 0 selects
	// DefaultSegmentFrames. Results depend on it (segment boundaries break
	// RCD sequences), so resumed runs must reuse the original value.
	SegmentFrames int
	// Parallel configures the parsim run: workers, retries, and — the
	// resume story — Checkpoint.
	Parallel parsim.Options
}

// DefaultSegmentFrames is the default shard granularity: 64 frames of
// DefaultBlock references ≈ 256k references per shard, large enough to
// amortize shard setup and small enough to checkpoint progress frequently.
const DefaultSegmentFrames = 64

func (o TraceProfileOptions) withDefaults() TraceProfileOptions {
	if o.Geom.Sets == 0 {
		o.Geom = mem.L1Default()
	}
	if o.Period == nil {
		o.Period = pmu.Uniform(pmu.DefaultPeriod)
	}
	if o.SegmentFrames < 1 {
		o.SegmentFrames = DefaultSegmentFrames
	}
	return o
}

// traceShard is one segment's result. It round-trips through encoding/json
// (pmu.Sample is two uint64 fields), which is what lets parsim checkpoints
// restore completed shards byte-exactly.
type traceShard struct {
	Samples []pmu.Sample `json:"samples,omitempty"`
	Events  uint64       `json:"events"`
	Refs    uint64       `json:"refs"`
}

// ProfileTrace profiles a recorded framed trace under the simulated PMU,
// sharded over frame-aligned segments. open must return a fresh reader of
// the same trace on every call (each shard — and the initial index scan —
// opens its own); readers that implement io.Closer are closed. name labels
// the resulting Profile.
//
// Unlike ProfileProgram, ProfileTrace does not fold sampler statistics into
// the obs registry: a resumed run skips restored shards and would
// under-count, breaking the byte-identical-resume guarantee the checkpoint
// exists for. The Profile's own counters are always complete (restored
// shards carry theirs in the checkpoint).
func ProfileTrace(name string, open func() (io.ReadSeeker, error), opts TraceProfileOptions) (*Profile, error) {
	o := opts.withDefaults()
	if err := (pmu.Config{Geom: o.Geom, Period: o.Period, Burst: o.Burst}).Validate(); err != nil {
		return nil, fmt.Errorf("core: trace profile config: %w", err)
	}

	// Index scan: walk frame headers only, collecting every
	// SegmentFrames-th boundary.
	index, err := scanTraceIndex(open, o.SegmentFrames)
	if err != nil {
		return nil, err
	}
	nseg := len(index) - 1

	burst := o.Burst
	if burst < 1 {
		burst = 1
	}
	prof := &Profile{
		Workload:   name,
		Geom:       o.Geom,
		PeriodMean: o.Period.Mean(),
		Burst:      burst,
		Samples:    make([][]pmu.Sample, nseg),
	}
	if nseg == 0 {
		return prof, nil
	}

	shards, err := parsim.Run(nseg, o.Parallel, func(i int) (traceShard, error) {
		return profileSegment(open, index[i], index[i+1], o, i)
	})
	if err != nil {
		return nil, err
	}
	for i, sh := range shards {
		prof.Samples[i] = sh.Samples
		prof.Events += sh.Events
		prof.Refs += sh.Refs
	}
	return prof, nil
}

// scanTraceIndex opens the trace once and indexes segment boundaries.
func scanTraceIndex(open func() (io.ReadSeeker, error), every int) ([]trace.StreamPos, error) {
	rs, err := open()
	if err != nil {
		return nil, fmt.Errorf("core: opening trace: %w", err)
	}
	defer closeIfCloser(rs)
	tr, err := trace.NewTraceReader(rs)
	if err != nil {
		return nil, err
	}
	return tr.ScanIndex(every)
}

// profileSegment replays one frame-aligned segment through a pooled,
// seed-derived sampler. It is a parsim task: shared-nothing, deterministic
// for (trace, root seed, segment index).
func profileSegment(open func() (io.ReadSeeker, error), start, end trace.StreamPos, o TraceProfileOptions, i int) (traceShard, error) {
	rs, err := open()
	if err != nil {
		return traceShard{}, fmt.Errorf("core: opening trace for shard %d: %w", i, err)
	}
	defer closeIfCloser(rs)
	rt, err := trace.ResumeTraceReader(rs, start)
	if err != nil {
		return traceShard{}, err
	}

	cfg := pmu.Config{
		Geom:   o.Geom,
		Period: o.Period,
		Seed:   parsim.DeriveSeed(o.Seed, fmt.Sprintf("shard/%d", i)),
		Burst:  o.Burst,
	}
	s := pooledSampler(cfg)
	defer samplerPool.Put(s)

	for rt.Pos().Frame < end.Frame {
		blk, err := rt.Next()
		if err != nil {
			// io.EOF before the indexed end is a trace that shrank under
			// us; report it as corruption, not clean end-of-stream.
			return traceShard{}, fmt.Errorf("core: shard %d at frame %d: %w", i, rt.Pos().Frame, err)
		}
		s.RefBlock(blk)
	}

	sh := traceShard{Events: s.Events, Refs: s.Refs}
	if len(s.Samples) > 0 {
		sh.Samples = append([]pmu.Sample(nil), s.Samples...)
	}
	return sh, nil
}

func closeIfCloser(r io.ReadSeeker) {
	if c, ok := r.(io.Closer); ok {
		c.Close()
	}
}
