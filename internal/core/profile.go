// Package core implements CCProf itself: the online profiler that runs a
// workload under simulated PEBS address sampling, and the offline analyzer
// that recovers loops from the binary, approximates per-loop RCD
// distributions from the samples, classifies conflict misses, and performs
// code- and data-centric attribution (§4 of the paper).
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/faultinj"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/parsim"
	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Profile is the output of the online phase: everything the offline
// analyzer needs, and nothing the hardware would not have provided.
type Profile struct {
	Workload string
	Geom     mem.Geometry
	// PeriodMean is the configured mean sampling period.
	PeriodMean float64
	// Samples holds the address samples of each profiled thread; each
	// thread has a private L1, so per-thread sequences are analyzed
	// independently and their metrics pooled.
	Samples [][]pmu.Sample
	// Events is the total number of L1-miss events across threads (the
	// precise PMU counter value), Refs the total references executed.
	Events uint64
	Refs   uint64
	// Burst is the configured burst length (1 = single-event sampling);
	// the analyzer only trusts within-burst sample distances when > 1.
	Burst int
	// BaselineNs and ProfiledNs are measured wall-clock times of the
	// workload run without and with the sampler attached, for the
	// in-harness overhead measurement.
	BaselineNs int64
	ProfiledNs int64
	// FaultDropped, FaultTruncated and FaultCorrupted annotate degraded
	// profiles: samples an injected fault plan discarded, discarded in
	// truncation bursts, or delivered with rewritten addresses, summed
	// across threads. All zero when profiling ran without fault injection.
	// They are deterministic for a given plan seed and are not part of the
	// profile's binary serialization (a saved profile carries the damage
	// in its sample stream, not the ledger).
	FaultDropped   uint64
	FaultTruncated uint64
	FaultCorrupted uint64
	// StreamSamples counts samples consumed online in streaming mode
	// (ProfileStream), where Samples stays empty — the stream is analyzed,
	// never stored. Always 0 on buffered profiles.
	StreamSamples int
}

// Degraded reports whether fault injection perturbed this profile's sample
// stream.
func (p *Profile) Degraded() bool {
	return p.FaultDropped > 0 || p.FaultTruncated > 0 || p.FaultCorrupted > 0
}

// SampleCount returns the total samples across threads: buffered samples
// plus, in streaming mode, the online-consumed count.
func (p *Profile) SampleCount() int {
	n := p.StreamSamples
	for _, s := range p.Samples {
		n += len(s)
	}
	return n
}

// MeasuredOverhead returns the in-harness wall-clock overhead factor of
// profiling (profiled time / baseline time), or 0 when timings are missing.
func (p *Profile) MeasuredOverhead() float64 {
	if p.BaselineNs <= 0 {
		return 0
	}
	return float64(p.ProfiledNs) / float64(p.BaselineNs)
}

// ProfileOptions configures the online profiler. The zero value profiles a
// sequential run at the paper's recommended mean sampling period (1212)
// with the default L1 geometry.
type ProfileOptions struct {
	Geom    mem.Geometry   // zero value selects mem.L1Default()
	Period  pmu.PeriodDist // nil selects pmu.Uniform(pmu.DefaultPeriod)
	Seed    int64
	Threads int // 0 or 1 profiles the sequential run
	// NoTime skips wall-clock measurement entirely (baseline run and
	// profiled-run timing), making the profile bit-for-bit deterministic
	// for a given seed — required by tests and cached experiments.
	NoTime bool
	// Burst captures this many consecutive miss events per period expiry
	// (bursty sampling, §5.2); 0 or 1 samples single events.
	Burst int
	// Faults, when non-nil and active, deterministically perturbs each
	// thread's sample stream (see internal/faultinj). Injector seeds
	// derive from the plan seed and the key
	// "faults/<workload>/thread/<tid>", so the perturbation is identical
	// at any worker count or scheduling.
	Faults *faultinj.Plan
}

// samplerPool recycles per-thread PMU samplers across profiling runs. A
// sampler taken from the pool is always Reconfigured before use, which
// rewinds it to freshly-constructed state (see pmu.Reconfigure), so reuse
// cannot leak state between runs.
var samplerPool parsim.Pool[*pmu.Sampler]

// MaxThreads bounds ProfileOptions.Threads: the largest hardware thread
// count any evaluated machine declares (mem.Broadwell().Threads). A profile
// costs a goroutine pair, a sampler and a sample buffer per thread, so the
// count is checked before anything is sized from it.
const MaxThreads = 28

// resolve fills in the defaults and validates the options, before anything
// is allocated from them: the thread count, the fault plan and the sampler
// configuration every per-thread Config shares except for seed and
// injector.
func (o ProfileOptions) resolve() (ProfileOptions, error) {
	if o.Geom.Sets == 0 {
		o.Geom = mem.L1Default()
	}
	if o.Period == nil {
		o.Period = pmu.Uniform(pmu.DefaultPeriod)
	}
	if o.Threads < 1 {
		o.Threads = 1
	}
	if o.Threads > MaxThreads {
		return o, fmt.Errorf("%w: %d threads, at most %d", ErrTooManyThreads, o.Threads, MaxThreads)
	}
	if err := o.Faults.Validate(); err != nil {
		return o, fmt.Errorf("core: fault plan: %w", err)
	}
	if err := (pmu.Config{Geom: o.Geom, Period: o.Period, Burst: o.Burst}).Validate(); err != nil {
		return o, fmt.Errorf("core: profile config: %w", err)
	}
	if o.Burst < 1 {
		o.Burst = 1 // 0 and 1 both sample single events
	}
	return o, nil
}

// runThreads runs thread(tid) for every tid on a goroutine each and waits
// for all of them. A panic on any thread is re-raised on the caller's
// goroutine (the lowest tid's, once every thread has ended), so the callers'
// containment — parsim's PanicError, ccprofd's job recovery — sees it as it
// does at one thread.
func runThreads(threads int, thread func(tid int)) {
	panics := make([]any, threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[tid] = recover() }()
			thread(tid)
		}()
	}
	wg.Wait()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
}

// ProfileProgram runs the workload under the simulated PMU — CCProf's
// online phase. Each thread runs against a private sampler (its own L1
// model and sampling phase), mirroring how libmonitor sets up per-thread
// PEBS contexts, and each thread's kernel runs on a goroutine of its own
// beside its sampler (workloads RunThreadPipelined), so ProfiledNs times
// the overlapped run.
func ProfileProgram(p *workloads.Program, opts ProfileOptions) (*Profile, error) {
	if p == nil {
		return nil, ErrNilProgram
	}
	o, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	sp := obs.Default.Span("profile")
	defer sp.End()
	obs.Default.Counter("profile.runs").Inc()
	// Each thread is a two-stage pipeline (RunThreadPipelined): the kernel
	// emits on a goroutine of its own while the sampler, which owns all its
	// state, consumes the blocks on the thread's goroutine, so emission and
	// the simulated PMU overlap as PEBS hardware does beside the program.
	return profileThreads(p, o, p.RunThreadPipelined, nil), nil
}

// profileThreads is the run ProfileProgram and ProfileStream share: it
// times a baseline run unless o.NoTime, then runs every thread through
// run into a pooled per-thread sampler and folds the samplers' counters
// into the returned Profile. When handler is nil each thread's samples
// are copied into Profile.Samples; otherwise thread tid's sampler hands
// every sample to handler(tid) and only their count is kept.
func profileThreads(p *workloads.Program, o ProfileOptions, run func(tid, threads int, sink trace.Sink), handler func(tid int) func(pmu.Sample)) *Profile {
	prof := &Profile{
		Workload:   p.Name,
		Geom:       o.Geom,
		PeriodMean: o.Period.Mean(),
		Burst:      o.Burst,
		Samples:    make([][]pmu.Sample, o.Threads),
	}

	if !o.NoTime {
		start := time.Now()
		for tid := 0; tid < o.Threads; tid++ {
			p.RunThread(tid, o.Threads, trace.Discard)
		}
		prof.BaselineNs = time.Since(start).Nanoseconds()
	}

	// Threads run concurrently, as they would under libmonitor: each gets
	// a private sampler (its own L1 model, RNG phase and sample buffer),
	// so the result is deterministic regardless of scheduling. Per-thread
	// seeds follow the engine's derivation scheme (root ⊕ stable task
	// key), decorrelating thread sampling phases even for adjacent roots.
	start := time.Now()
	getSampler := func(tid int) *pmu.Sampler {
		seed := o.Seed
		if tid > 0 {
			seed = parsim.DeriveSeed(o.Seed, fmt.Sprintf("thread/%d", tid))
		}
		cfg := pmu.Config{Geom: o.Geom, Period: o.Period, Seed: seed, Burst: o.Burst}
		if o.Faults.Active() {
			// The interface field must stay truly nil for clean runs
			// (a typed-nil injector would still trip pmu's Faults != nil
			// bookkeeping).
			cfg.Faults = o.Faults.Injector(fmt.Sprintf("faults/%s/thread/%d", p.Name, tid))
		}
		s := pooledSampler(cfg)
		if handler != nil {
			s.Handler = handler(tid)
		}
		return s
	}
	var samplers []*pmu.Sampler
	if o.Threads == 1 {
		// The single-thread profile — every sweep task — samples on the
		// caller's goroutine: no WaitGroup, and the sampler slice stays on
		// the stack.
		s := getSampler(0)
		one := [1]*pmu.Sampler{s}
		samplers = one[:]
		run(0, 1, s)
	} else {
		samplers = make([]*pmu.Sampler, o.Threads)
		for tid := range samplers {
			samplers[tid] = getSampler(tid)
		}
		runThreads(o.Threads, func(tid int) { run(tid, o.Threads, samplers[tid]) })
	}
	// Merge-on-reassembly: each thread's sampler counted in shard-local
	// fields; fold the totals into the process registry here, once per
	// run, in thread order. Sums commute, so the merged counters are
	// identical at any scheduling.
	for tid, s := range samplers {
		if s.Handler != nil {
			prof.StreamSamples += int(s.SampleCount())
			s.Handler = nil // drop the analyzer reference before pooling
		} else if len(s.Samples) > 0 {
			prof.Samples[tid] = append([]pmu.Sample(nil), s.Samples...)
		}
		prof.Events += s.Events
		prof.Refs += s.Refs
		prof.FaultDropped += s.FaultDropped
		prof.FaultTruncated += s.FaultTruncated
		prof.FaultCorrupted += s.FaultCorrupted
		s.ObserveInto(obs.Default)
		samplerPool.Put(s)
	}
	if !o.NoTime {
		prof.ProfiledNs = time.Since(start).Nanoseconds()
	}
	return prof
}

// pooledSampler takes a sampler from samplerPool and rewinds it to the
// exact state pmu.NewSampler(cfg) would construct, so sweeps that profile
// hundreds of candidates stop reallocating the L1 model and sample buffer
// per run. Callers copy out what they keep before returning it to the
// pool.
func pooledSampler(cfg pmu.Config) *pmu.Sampler {
	s := samplerPool.Get()
	if s == nil {
		return pmu.NewSampler(cfg)
	}
	s.Reconfigure(cfg)
	return s
}
