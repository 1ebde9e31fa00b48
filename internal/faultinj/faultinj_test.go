package faultinj

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/mem"
	"repro/internal/parsim"
	"repro/internal/pmu"
	"repro/internal/trace"
)

func TestPlanValidate(t *testing.T) {
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("nil plan: %v", err)
	}
	if err := (&Plan{}).Validate(); err != nil {
		t.Errorf("zero plan: %v", err)
	}
	ok := &Plan{Seed: 3, DropRate: 0.1, TruncateRate: 0.05, TruncateBurst: 4,
		CorruptRate: 1, PeriodSkew: 0.5, PanicRate: 0.2, ErrorRate: 0.1,
		SlowRate: 0.1, SlowDelay: time.Millisecond, FailAttempts: 2}
	if err := ok.Validate(); err != nil {
		t.Errorf("full plan: %v", err)
	}
	cases := []struct {
		name string
		plan Plan
		want error
	}{
		{"negative rate", Plan{DropRate: -0.1}, ErrBadRate},
		{"rate above one", Plan{PanicRate: 1.5}, ErrBadRate},
		{"NaN rate", Plan{ErrorRate: math.NaN()}, ErrBadRate},
		{"negative burst", Plan{TruncateBurst: -1}, ErrBadBurst},
		{"skew of one", Plan{PeriodSkew: 1}, ErrBadSkew},
		{"negative skew", Plan{PeriodSkew: -0.1}, ErrBadSkew},
		{"negative attempts", Plan{FailAttempts: -1}, ErrBadAttempts},
		{"negative delay", Plan{SlowDelay: -time.Second}, ErrBadDelay},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestNilPlanInjectsNothing(t *testing.T) {
	var p *Plan
	if p.Active() {
		t.Error("nil plan is Active")
	}
	if inj := p.Injector("k"); inj != nil {
		t.Errorf("nil plan returned injector %v", inj)
	}
	// A typed-nil *Injector stored in the interface must stay inert.
	var inj *Injector
	if got := inj.SkewPeriod(17); got != 17 {
		t.Errorf("nil injector skewed period to %d", got)
	}
	s := pmu.Sample{IP: 1, Addr: 2}
	if got, act := inj.OnSample(0, s); got != s || act != pmu.FaultKeep {
		t.Errorf("nil injector acted: %v, %v", got, act)
	}
	if f := p.Shard("k", 0); f.Panic || f.Err != nil || f.Slow != 0 {
		t.Errorf("nil plan injected shard fault %+v", f)
	}
}

// TestInjectorDeterminism: the same (plan, key) reproduces the exact fault
// sequence; a different key decorrelates it.
func TestInjectorDeterminism(t *testing.T) {
	plan := &Plan{Seed: 42, DropRate: 0.2, CorruptRate: 0.1, PeriodSkew: 0.3}
	run := func(key string) ([]pmu.FaultAction, []uint64) {
		inj := plan.Injector(key)
		acts := make([]pmu.FaultAction, 200)
		periods := make([]uint64, 50)
		for i := range acts {
			_, acts[i] = inj.OnSample(uint64(i), pmu.Sample{Addr: uint64(i) * 64})
		}
		for i := range periods {
			periods[i] = inj.SkewPeriod(1000)
		}
		return acts, periods
	}
	a1, p1 := run("faults/nw/thread/0")
	a2, p2 := run("faults/nw/thread/0")
	b, _ := run("faults/nw/thread/1")
	differs := false
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same key diverged at sample %d", i)
		}
		if a1[i] != b[i] {
			differs = true
		}
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same key diverged at period draw %d", i)
		}
	}
	if !differs {
		t.Error("distinct keys produced identical fault sequences")
	}
}

// TestInjectorRates: empirical fault fractions track the configured rates.
func TestInjectorRates(t *testing.T) {
	plan := &Plan{Seed: 7, DropRate: 0.15, CorruptRate: 0.1}
	inj := plan.Injector("rates")
	const n = 20000
	var drops, corrupts int
	for i := 0; i < n; i++ {
		_, act := inj.OnSample(uint64(i), pmu.Sample{})
		switch act {
		case pmu.FaultDrop:
			drops++
		case pmu.FaultCorrupt:
			corrupts++
		}
	}
	if got := float64(drops) / n; math.Abs(got-0.15) > 0.01 {
		t.Errorf("drop fraction %.3f, want ~0.15", got)
	}
	// Corruption is decided after the drop channel passes, so its observed
	// fraction is 0.1 of the survivors.
	if got := float64(corrupts) / n; math.Abs(got-0.1*(1-0.15)) > 0.01 {
		t.Errorf("corrupt fraction %.3f, want ~%.3f", got, 0.1*(1-0.15))
	}
}

// TestInjectorTruncationBursts: truncations come in whole bursts.
func TestInjectorTruncationBursts(t *testing.T) {
	plan := &Plan{Seed: 11, TruncateRate: 0.02, TruncateBurst: 5}
	inj := plan.Injector("bursts")
	run := 0
	var runs []int
	for i := 0; i < 5000; i++ {
		_, act := inj.OnSample(uint64(i), pmu.Sample{})
		if act == pmu.FaultTruncate {
			run++
			continue
		}
		if run > 0 {
			runs = append(runs, run)
			run = 0
		}
	}
	if len(runs) == 0 {
		t.Fatal("no truncation bursts at 2% over 5000 samples")
	}
	for _, r := range runs {
		// A burst can only be ≥ the configured length (two bursts may
		// abut); shorter runs would mean truncation leaked sample-by-sample.
		if r < 5 {
			t.Errorf("truncation run of %d samples, want multiples of 5", r)
		}
	}
}

// TestInjectorCorruptMask: corruption rewrites the address with the mask.
func TestInjectorCorruptMask(t *testing.T) {
	plan := &Plan{Seed: 1, CorruptRate: 1}
	inj := plan.Injector("mask")
	s, act := inj.OnSample(0, pmu.Sample{Addr: 0xABCD00})
	if act != pmu.FaultCorrupt || s.Addr != 0xABCD00^DefaultCorruptMask {
		t.Errorf("got %v addr %#x, want corrupt with default mask", act, s.Addr)
	}
	plan2 := &Plan{Seed: 1, CorruptRate: 1, CorruptMask: 0xFF}
	s2, _ := plan2.Injector("mask").OnSample(0, pmu.Sample{Addr: 0xABCD00})
	if s2.Addr != 0xABCD00^0xFF {
		t.Errorf("custom mask: addr %#x", s2.Addr)
	}
}

// TestInjectorPeriodSkew: skewed periods stay within the configured band
// and at least one draw actually moves.
func TestInjectorPeriodSkew(t *testing.T) {
	plan := &Plan{Seed: 5, PeriodSkew: 0.25}
	inj := plan.Injector("skew")
	moved := false
	for i := 0; i < 1000; i++ {
		p := inj.SkewPeriod(1000)
		if p < 750 || p > 1250 {
			t.Fatalf("draw %d: period %d outside ±25%% of 1000", i, p)
		}
		if p != 1000 {
			moved = true
		}
	}
	if !moved {
		t.Error("skew never perturbed the period")
	}
	if p := (&Plan{Seed: 5, PeriodSkew: 0.9}).Injector("clamp").SkewPeriod(1); p < 1 {
		t.Errorf("skew produced period %d < 1", p)
	}
}

// TestShardFaultAttemptGate: a shard selected for failure fails exactly its
// first FailAttempts attempts, then succeeds; slowdowns persist.
func TestShardFaultAttemptGate(t *testing.T) {
	plan := &Plan{Seed: 9, PanicRate: 1, SlowRate: 1, SlowDelay: time.Microsecond, FailAttempts: 2}
	for attempt := 0; attempt < 4; attempt++ {
		f := plan.Shard("shard/0", attempt)
		if f.Slow != time.Microsecond {
			t.Errorf("attempt %d: Slow = %v", attempt, f.Slow)
		}
		wantFail := attempt < 2
		if f.Panic != wantFail {
			t.Errorf("attempt %d: Panic = %v, want %v", attempt, f.Panic, wantFail)
		}
	}
	errPlan := &Plan{Seed: 9, ErrorRate: 1}
	f := errPlan.Shard("shard/0", 0)
	if f.Err == nil || !errors.Is(f.Err, ErrInjected) {
		t.Errorf("injected error %v does not wrap ErrInjected", f.Err)
	}
	if f := errPlan.Shard("shard/0", 1); f.Err != nil {
		t.Errorf("default FailAttempts=1: attempt 1 still fails: %v", f.Err)
	}
}

// TestShardFaultApply: Apply panics or returns per the decision.
func TestShardFaultApply(t *testing.T) {
	if err := (ShardFault{}).Apply(); err != nil {
		t.Errorf("empty fault: %v", err)
	}
	werr := errors.New("x")
	if err := (ShardFault{Err: werr}).Apply(); err != werr {
		t.Errorf("error fault returned %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic fault did not panic")
			}
		}()
		_ = ShardFault{Panic: true, Err: werr}.Apply()
	}()
}

// TestPlanThroughSampler wires a Plan injector into a real pmu sampler and
// checks faults land in the typed counters, identically across runs.
func TestPlanThroughSampler(t *testing.T) {
	plan := &Plan{Seed: 21, DropRate: 0.2, CorruptRate: 0.05, PeriodSkew: 0.1}
	mk := func() *pmu.Sampler {
		return pmu.NewSampler(pmu.Config{
			Geom: mem.L1Default(), Period: pmu.Fixed(13), Seed: 4,
			Faults: plan.Injector("faults/test/thread/0"),
		})
	}
	a, b := mk(), mk()
	var blk trace.RefBlock
	for i := 0; i < 20000; i++ {
		blk.Append(trace.Ref{IP: 0x1000, Addr: uint64(i) * 4096})
	}
	a.RefBlock(&blk)
	b.RefBlock(&blk)
	if a.FaultDropped == 0 || a.FaultCorrupted == 0 {
		t.Errorf("no faults recorded: dropped %d, corrupted %d", a.FaultDropped, a.FaultCorrupted)
	}
	if a.FaultDropped != b.FaultDropped || a.FaultCorrupted != b.FaultCorrupted ||
		len(a.Samples) != len(b.Samples) {
		t.Errorf("identical runs diverged: (%d,%d,%d) vs (%d,%d,%d)",
			a.FaultDropped, a.FaultCorrupted, len(a.Samples),
			b.FaultDropped, b.FaultCorrupted, len(b.Samples))
	}
}

// TestPlanThroughParsim runs a faulty sweep end-to-end: every injected
// panic/error recovers within one retry, results are complete, and the
// degraded-mode report is identical at any worker count.
func TestPlanThroughParsim(t *testing.T) {
	plan := &Plan{Seed: 33, PanicRate: 0.3, ErrorRate: 0.3}
	const n = 32
	type outcome struct {
		res []int
		rep *parsim.Report
	}
	run := func(workers int) outcome {
		res, rep, err := parsim.RunCtx(n, parsim.Options{Workers: workers, Retries: 1},
			func(ctx context.Context, i int) (int, error) {
				key := shardKey(i)
				if err := plan.Shard(key, parsim.Attempt(ctx)).Apply(); err != nil {
					return 0, err
				}
				return i * 3, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return outcome{res, rep}
	}
	one, eight := run(1), run(8)
	for i := range one.res {
		if one.res[i] != i*3 || eight.res[i] != i*3 {
			t.Errorf("result[%d] = %d / %d, want %d", i, one.res[i], eight.res[i], i*3)
		}
	}
	if one.rep.Retries == 0 {
		t.Error("plan with 30% panic + 30% error rates injected nothing over 32 shards")
	}
	if one.rep.Retries != eight.rep.Retries || one.rep.Panics != eight.rep.Panics {
		t.Errorf("degraded report depends on workers: -j1 %+v, -j8 %+v", one.rep, eight.rep)
	}
}

func shardKey(i int) string {
	return "faults/sweep/shard/" + string(rune('a'+i%26)) + string(rune('0'+i/26))
}
