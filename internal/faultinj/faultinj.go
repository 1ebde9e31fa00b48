// Package faultinj is the deterministic fault-injection layer of the
// profiling pipeline. A Plan describes a fault regime — PEBS-style sample
// drops, bursty buffer truncation, corrupted sample addresses, skewed
// sampling periods, and shard-level panics/errors/slowdowns — and hands out
// per-component injectors whose every decision is a pure function of
// (plan seed, component key, event index).
//
// Determinism rules (see DESIGN.md):
//
//   - Injector seeds derive from the plan seed with parsim.DeriveSeed and a
//     stable component key ("faults/<workload>/thread/<tid>"), never from a
//     shared RNG or anything scheduling-dependent. The same plan therefore
//     perturbs a sweep identically at -j 1 and -j 8.
//   - Fault decisions hash the event index instead of consuming a stateful
//     RNG stream, so the decision for sample n does not depend on how many
//     earlier samples were inspected.
//   - Shard faults are gated on parsim.Attempt: a shard selected for
//     failure fails its first FailAttempts attempts and then succeeds, so
//     retry machinery can be exercised without losing determinism.
//   - Slowdowns pace wall clock only; nothing time-derived reaches results.
package faultinj

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/parsim"
	"repro/internal/pmu"
)

// DefaultCorruptMask is the address corruption applied when a Plan selects
// a sample for corruption but sets no mask: it flips one set-index bit
// (bit 7) and one tag bit (bit 16), moving the sample to a different cache
// set — the worst case for a set-conflict classifier.
const DefaultCorruptMask uint64 = 1<<7 | 1<<16

// ErrInjected is the root cause of plan-injected shard errors.
var ErrInjected = errors.New("faultinj: injected shard error")

// Typed Plan validation failures.
var (
	ErrBadRate     = errors.New("faultinj: rate outside [0, 1]")
	ErrBadBurst    = errors.New("faultinj: negative truncation burst")
	ErrBadSkew     = errors.New("faultinj: period skew outside [0, 1)")
	ErrBadAttempts = errors.New("faultinj: negative fail-attempts")
	ErrBadDelay    = errors.New("faultinj: negative slow delay")
)

// Plan is a deterministic fault regime. The zero value injects nothing;
// a nil *Plan is valid everywhere and also injects nothing.
type Plan struct {
	// Seed is the root of every injector seed derivation.
	Seed int64

	// DropRate is the per-sample probability that a raised sample is
	// silently discarded (a lost PEBS interrupt).
	DropRate float64

	// TruncateRate is the per-sample probability that a buffer-overflow
	// burst starts at that sample; the sample and the following
	// TruncateBurst-1 samples are discarded as a block, modelling a full
	// PEBS buffer.
	TruncateRate float64
	// TruncateBurst is the burst length; 0 selects 8.
	TruncateBurst int

	// CorruptRate is the per-sample probability that the sample address
	// is rewritten by XOR with CorruptMask (aliasing the sample into a
	// different cache set).
	CorruptRate float64
	// CorruptMask is the XOR mask; 0 selects DefaultCorruptMask.
	CorruptMask uint64

	// PeriodSkew perturbs every drawn sampling period by a deterministic
	// per-draw factor in [1-PeriodSkew, 1+PeriodSkew]. Must be in [0, 1).
	PeriodSkew float64

	// PanicRate, ErrorRate and SlowRate select shards (by stable key) for
	// worker panics, injected errors and artificial slowdowns.
	PanicRate float64
	ErrorRate float64
	SlowRate  float64

	// SlowDelay is how long a slow shard sleeps per attempt; 0 selects
	// 10ms. The sleep paces wall clock only and never reaches results.
	SlowDelay time.Duration

	// FailAttempts is how many leading attempts of a selected shard fail
	// before it succeeds; 0 selects 1, so a single retry recovers every
	// injected shard fault. Gated on parsim.Attempt.
	FailAttempts int
}

// Validate checks the plan's parameters, wrapping typed errors.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	rates := []struct {
		name string
		v    float64
	}{
		{"DropRate", p.DropRate},
		{"TruncateRate", p.TruncateRate},
		{"CorruptRate", p.CorruptRate},
		{"PanicRate", p.PanicRate},
		{"ErrorRate", p.ErrorRate},
		{"SlowRate", p.SlowRate},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 || r.v != r.v {
			return fmt.Errorf("%w: %s = %v", ErrBadRate, r.name, r.v)
		}
	}
	if p.TruncateBurst < 0 {
		return fmt.Errorf("%w: %d", ErrBadBurst, p.TruncateBurst)
	}
	if p.PeriodSkew < 0 || p.PeriodSkew >= 1 || p.PeriodSkew != p.PeriodSkew {
		return fmt.Errorf("%w: %v", ErrBadSkew, p.PeriodSkew)
	}
	if p.FailAttempts < 0 {
		return fmt.Errorf("%w: %d", ErrBadAttempts, p.FailAttempts)
	}
	if p.SlowDelay < 0 {
		return fmt.Errorf("%w: %v", ErrBadDelay, p.SlowDelay)
	}
	return nil
}

// Active reports whether the plan injects any fault at all.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.DropRate > 0 || p.TruncateRate > 0 || p.CorruptRate > 0 ||
		p.PeriodSkew > 0 || p.PanicRate > 0 || p.ErrorRate > 0 || p.SlowRate > 0
}

// truncateBurst resolves the burst-length default.
func (p *Plan) truncateBurst() int {
	if p.TruncateBurst > 0 {
		return p.TruncateBurst
	}
	return 8
}

// corruptMask resolves the mask default.
func (p *Plan) corruptMask() uint64 {
	if p.CorruptMask != 0 {
		return p.CorruptMask
	}
	return DefaultCorruptMask
}

// failAttempts resolves the fail-attempts default.
func (p *Plan) failAttempts() int {
	if p.FailAttempts > 0 {
		return p.FailAttempts
	}
	return 1
}

// slowDelay resolves the slow-delay default.
func (p *Plan) slowDelay() time.Duration {
	if p.SlowDelay > 0 {
		return p.SlowDelay
	}
	return 10 * time.Millisecond
}

// splitmix64 is the finalizer of the SplitMix64 generator — a strong
// 64-bit mixer used here as a stateless hash from event index to uniform
// bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// uniform maps (seed, stream, n) to a uniform float64 in [0, 1). stream
// decorrelates the plan's independent fault channels so e.g. the drop and
// corrupt decisions for the same sample index are independent.
func uniform(seed int64, stream, n uint64) float64 {
	x := splitmix64(uint64(seed) ^ splitmix64(stream) ^ n)
	return float64(x>>11) / (1 << 53)
}

// Fault-channel stream ids.
const (
	streamDrop uint64 = iota + 1
	streamTruncate
	streamCorrupt
	streamPeriod
	streamPanic
	streamError
	streamSlow
)

// Injector perturbs one sampler's stream per the plan. It implements
// pmu.FaultInjector. An Injector is stateful (truncation bursts, period
// draw count) and must not be shared between samplers; derive one per
// sampled thread with Plan.Injector.
type Injector struct {
	plan *Plan
	seed int64

	truncLeft   int    // samples left in the running truncation burst
	periodDraws uint64 // period draws seen, the SkewPeriod event index
}

// Injector derives the sampler-level injector for one component. key must
// be stable across runs and unique per sampler
// ("faults/<workload>/thread/<tid>"); the derived seed is
// parsim.DeriveSeed(plan.Seed, key). A nil plan returns nil, which
// pmu.Config treats as "inject nothing".
func (p *Plan) Injector(key string) *Injector {
	if p == nil {
		return nil
	}
	return &Injector{plan: p, seed: parsim.DeriveSeed(p.Seed, key)}
}

// SkewPeriod perturbs one drawn sampling period. Safe on a nil receiver
// (a nil *Injector stored in pmu.Config.Faults is a non-nil interface).
func (in *Injector) SkewPeriod(period uint64) uint64 {
	if in == nil {
		return period
	}
	n := in.periodDraws
	in.periodDraws++
	if in.plan.PeriodSkew <= 0 {
		return period
	}
	// factor in [1-skew, 1+skew], applied in float and clamped ≥ 1.
	f := 1 + in.plan.PeriodSkew*(2*uniform(in.seed, streamPeriod, n)-1)
	skewed := uint64(float64(period) * f)
	if skewed < 1 {
		skewed = 1
	}
	return skewed
}

// OnSample decides the fate of raised sample n. Safe on a nil receiver.
func (in *Injector) OnSample(n uint64, s pmu.Sample) (pmu.Sample, pmu.FaultAction) {
	if in == nil {
		return s, pmu.FaultKeep
	}
	if in.truncLeft > 0 {
		in.truncLeft--
		return s, pmu.FaultTruncate
	}
	p := in.plan
	if p.TruncateRate > 0 && uniform(in.seed, streamTruncate, n) < p.TruncateRate {
		in.truncLeft = p.truncateBurst() - 1
		return s, pmu.FaultTruncate
	}
	if p.DropRate > 0 && uniform(in.seed, streamDrop, n) < p.DropRate {
		return s, pmu.FaultDrop
	}
	if p.CorruptRate > 0 && uniform(in.seed, streamCorrupt, n) < p.CorruptRate {
		s.Addr ^= p.corruptMask()
		return s, pmu.FaultCorrupt
	}
	return s, pmu.FaultKeep
}

// ShardFault is the plan's decision for one shard attempt.
type ShardFault struct {
	// Panic, when true, asks the shard to panic with Err as the value.
	Panic bool
	// Err, when non-nil and Panic is false, is the error the shard should
	// return. It wraps ErrInjected.
	Err error
	// Slow is an artificial delay the shard should sleep before working.
	Slow time.Duration
}

// Shard decides what happens to the attempt-th execution of the shard
// named by key. Panics and errors apply only to attempts below the plan's
// FailAttempts, so a sweep with Retries ≥ FailAttempts recovers every
// injected shard fault; slowdowns apply to every attempt of a selected
// shard. A nil plan decides nothing.
func (p *Plan) Shard(key string, attempt int) ShardFault {
	var f ShardFault
	if p == nil {
		return f
	}
	seed := parsim.DeriveSeed(p.Seed, key)
	if p.SlowRate > 0 && uniform(seed, streamSlow, 0) < p.SlowRate {
		f.Slow = p.slowDelay()
	}
	if attempt >= p.failAttempts() {
		return f
	}
	if p.PanicRate > 0 && uniform(seed, streamPanic, 0) < p.PanicRate {
		f.Panic = true
		f.Err = fmt.Errorf("%w: injected panic in %s (attempt %d)", ErrInjected, key, attempt)
		return f
	}
	if p.ErrorRate > 0 && uniform(seed, streamError, 0) < p.ErrorRate {
		f.Err = fmt.Errorf("%w: %s (attempt %d)", ErrInjected, key, attempt)
	}
	return f
}

// Apply executes the decision inside a shard: it sleeps the slowdown,
// panics, or returns the injected error. Call it at the top of a
// parsim.RunCtx task with the task's stable key and parsim.Attempt(ctx);
// a nil error means the shard should do its real work.
func (f ShardFault) Apply() error {
	if f.Slow > 0 {
		time.Sleep(f.Slow)
	}
	if f.Panic {
		panic(f.Err)
	}
	return f.Err
}
