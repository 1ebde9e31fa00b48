// Package pmu simulates the performance-monitoring-unit address sampling
// CCProf builds on.
//
// Real CCProf programs Intel PEBS to sample MEM_LOAD_UOPS_RETIRED:L1_MISS:
// every Nth L1-miss event raises an interrupt delivering the precise
// instruction pointer and effective data address of the missing access, and
// the sample handler randomizes the next period. This package reproduces
// that contract over a simulated core: the Sampler is a trace.Sink whose
// private L1 model decides which references miss ("the hardware"), counts
// miss events, and emits a lossy, period-randomized subsequence of them as
// Samples. Everything downstream (RCD approximation, classification) sees
// exactly the information a PEBS buffer would contain — no more.
package pmu

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Sample is one address sample: the instruction pointer and effective data
// address of a sampled L1-miss event, like a PEBS record.
type Sample struct {
	IP   uint64
	Addr uint64
}

// PeriodDist draws successive sampling periods. The paper's sample handler
// "randomly sets the next sampling period based on [a] given probability
// distribution"; implementations here cover the ablation space.
type PeriodDist interface {
	// NextPeriod returns the number of events to skip before the next
	// sample (>= 1).
	NextPeriod(rng *rand.Rand) uint64
	// Mean returns the mean sampling period, for reporting.
	Mean() float64
	fmt.Stringer
}

// Fixed samples every N events exactly.
type Fixed uint64

// NextPeriod implements PeriodDist.
func (f Fixed) NextPeriod(*rand.Rand) uint64 {
	if f < 1 {
		return 1
	}
	return uint64(f)
}

// Mean implements PeriodDist.
func (f Fixed) Mean() float64 { return float64(f) }

func (f Fixed) String() string { return fmt.Sprintf("fixed(%d)", uint64(f)) }

// Uniform draws periods uniformly from [Mean/2, 3*Mean/2], the default
// randomization (it breaks phase-locking with periodic miss patterns while
// keeping the configured mean).
type Uniform uint64

// NextPeriod implements PeriodDist.
func (u Uniform) NextPeriod(rng *rand.Rand) uint64 {
	m := uint64(u)
	if m < 2 {
		return 1
	}
	lo := m / 2
	return lo + uint64(rng.Int63n(int64(m+1)))
}

// Mean implements PeriodDist.
func (u Uniform) Mean() float64 { return float64(u) }

func (u Uniform) String() string { return fmt.Sprintf("uniform(%d)", uint64(u)) }

// Geometric draws periods geometrically with the given mean, modelling a
// per-event sampling probability of 1/mean.
type Geometric uint64

// NextPeriod implements PeriodDist via inverse-CDF sampling of a geometric
// distribution with per-event probability 1/Mean.
func (g Geometric) NextPeriod(rng *rand.Rand) uint64 {
	m := float64(g)
	if m <= 1 {
		return 1
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	n := math.Ceil(math.Log(u) / math.Log(1-1/m))
	if n < 1 {
		return 1
	}
	return uint64(n)
}

// Mean implements PeriodDist.
func (g Geometric) Mean() float64 { return float64(g) }

func (g Geometric) String() string { return fmt.Sprintf("geometric(%d)", uint64(g)) }

// FaultAction is a fault injector's verdict on one raised sample.
type FaultAction uint8

// Verdicts a FaultInjector can return from OnSample.
const (
	// FaultKeep delivers the sample unchanged.
	FaultKeep FaultAction = iota
	// FaultCorrupt delivers the rewritten sample the injector returned
	// (an aliased/corrupted data address, like a mangled PEBS record).
	FaultCorrupt
	// FaultDrop discards the sample (a lost PEBS interrupt).
	FaultDrop
	// FaultTruncate discards the sample as part of a buffer-overflow
	// burst (records lost wholesale when the buffer wraps before a
	// drain), counted separately from single-record drops.
	FaultTruncate
)

// FaultInjector perturbs the sample stream a Sampler produces, modelling
// the lossiness of real PEBS collection. Implementations must be pure
// functions of their own seed and the call sequence — never of wall clock,
// scheduling, or shared state — so a faulted profile is exactly as
// reproducible as a clean one (see internal/faultinj).
type FaultInjector interface {
	// SkewPeriod maps each drawn sampling period to the perturbed period
	// actually armed (>= 1).
	SkewPeriod(period uint64) uint64
	// OnSample judges the n-th raised sample (n counts every raise,
	// delivered or not) and returns the possibly rewritten sample along
	// with the action to take.
	OnSample(n uint64, s Sample) (Sample, FaultAction)
}

// Typed Config validation errors, matchable with errors.Is through the
// error Validate wraps them in.
var (
	// ErrBadGeometry reports a cache geometry with a non-positive
	// dimension.
	ErrBadGeometry = errors.New("pmu: cache geometry dimensions must be positive")
	// ErrBadPeriod reports a period distribution whose mean is zero or
	// negative: such a sampler would either never fire or spin.
	ErrBadPeriod = errors.New("pmu: sampling period mean must be positive")
	// ErrBadBurst reports a negative burst length.
	ErrBadBurst = errors.New("pmu: Burst must be >= 0")
)

// Config configures a Sampler.
type Config struct {
	Geom   mem.Geometry // geometry of the sampled (L1) cache
	Period PeriodDist   // sampling period distribution
	Seed   int64        // RNG seed for period randomization

	// Burst enables bursty sampling (§5.2: CCProf "approximates the RCD
	// measurement by bursty sampling"): each period expiry captures
	// Burst consecutive miss events instead of one, so within-burst
	// sample distances are exact miss distances. 0 or 1 disables bursts.
	Burst int

	// Faults, when non-nil, deterministically perturbs the sample stream:
	// every drawn period passes through SkewPeriod and every raised
	// sample through OnSample before delivery. Dropped/truncated/
	// corrupted counts accrue to the sampler's Fault* counters. Nil
	// injects nothing.
	Faults FaultInjector
}

// Validate returns a typed error (ErrBadGeometry, ErrBadPeriod,
// ErrBadBurst) for configurations that cannot produce a
// meaningful profile, instead of letting them run into empty or nonsense
// sample streams. A nil Period is valid (NewSampler installs the default).
func (c Config) Validate() error {
	if c.Geom.LineSize <= 0 || c.Geom.Sets <= 0 || c.Geom.Ways <= 0 {
		return fmt.Errorf("%w (got %dB lines, %d sets, %d ways)",
			ErrBadGeometry, c.Geom.LineSize, c.Geom.Sets, c.Geom.Ways)
	}
	if c.Period != nil && c.Period.Mean() <= 0 {
		return fmt.Errorf("%w (got %s, mean %g)", ErrBadPeriod, c.Period, c.Period.Mean())
	}
	if c.Burst < 0 {
		return fmt.Errorf("%w (got %d)", ErrBadBurst, c.Burst)
	}
	return nil
}

// Sampler consumes a reference stream and produces address samples of
// L1-miss events. It implements trace.Sink (see RefBlock).
type Sampler struct {
	cfg   Config
	l1    *cache.Cache
	rng   *rand.Rand
	next  uint64 // events remaining until the next sample (or burst)
	burst int    // events remaining in the current burst

	// Events counts every L1-miss event, sampled or not (the hardware
	// counter value).
	Events uint64
	// Refs counts every reference observed.
	Refs uint64
	// FaultDropped, FaultTruncated and FaultCorrupted count samples the
	// configured FaultInjector dropped, discarded in buffer-truncation
	// bursts, or delivered with a rewritten address. All 0 when
	// Config.Faults is nil.
	FaultDropped   uint64
	FaultTruncated uint64
	FaultCorrupted uint64
	// Samples is the collected sample buffer.
	Samples []Sample

	// Handler, when non-nil, is invoked for each sample instead of
	// appending to Samples (an "online" consumer).
	Handler func(Sample)

	count  uint64 // samples taken, whether buffered or handled
	raised uint64 // samples raised, before fault injection

	miss []int32 // scratch miss-index buffer for the fused block path
}

// NewSampler returns a Sampler with the given configuration.
func NewSampler(cfg Config) *Sampler {
	if cfg.Period == nil {
		cfg.Period = Uniform(DefaultPeriod)
	}
	s := &Sampler{
		cfg: cfg,
		l1:  cache.New(cfg.Geom, cache.LRU, nil),
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	s.next = s.drawPeriod()
	return s
}

// drawPeriod draws the next sampling period, routed through the fault
// injector's skew when one is configured.
func (s *Sampler) drawPeriod() uint64 {
	p := s.cfg.Period.NextPeriod(s.rng)
	if s.cfg.Faults != nil {
		if p = s.cfg.Faults.SkewPeriod(p); p < 1 {
			p = 1
		}
	}
	return p
}

// DefaultPeriod is the mean sampling period the paper recommends (§5.3):
// F1 ≈ 0.83 at ~2.9x runtime overhead.
const DefaultPeriod = 1212

// Grow pre-extends the sample buffer to hold n more samples without
// reallocation, eliminating append churn on the delivery path. Sweeps that
// know their expected sample count (refs × miss ratio / period) reserve it
// up front; the zero-alloc guarantee of the block path is asserted in
// TestSamplerBatchZeroAlloc and TestInstrumentedStreamZeroAlloc.
func (s *Sampler) Grow(n int) {
	if n <= 0 || cap(s.Samples)-len(s.Samples) >= n {
		return
	}
	grown := make([]Sample, len(s.Samples), len(s.Samples)+n)
	copy(grown, s.Samples)
	s.Samples = grown
}

func (s *Sampler) deliver(r trace.Ref) {
	sm := Sample{IP: r.IP, Addr: r.Addr}
	n := s.raised
	s.raised++
	if f := s.cfg.Faults; f != nil {
		var act FaultAction
		switch sm, act = f.OnSample(n, sm); act {
		case FaultDrop:
			s.FaultDropped++
			return
		case FaultTruncate:
			s.FaultTruncated++
			return
		case FaultCorrupt:
			s.FaultCorrupted++
		}
	}
	if s.Handler != nil {
		s.count++
		s.Handler(sm)
		return
	}
	s.count++
	s.Samples = append(s.Samples, sm)
}

// SampleCount returns the number of samples taken so far, whether buffered
// in Samples or delivered to Handler.
func (s *Sampler) SampleCount() uint64 { return s.count }
