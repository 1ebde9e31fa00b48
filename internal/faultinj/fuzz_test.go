package faultinj

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/parsim"
	"repro/internal/pmu"
	"repro/internal/trace"
)

// FuzzFaultPlan is the pipeline-never-panics contract: for any plan the
// fuzzer can express — valid or not — the sampler+sweep pipeline either
// completes with a degraded-mode report or returns a typed error; it never
// panics past parsim's recovery, and valid plans always yield a report.
func FuzzFaultPlan(f *testing.F) {
	f.Add(int64(1), 0.1, 0.05, int16(4), 0.1, uint64(0), 0.2, 0.5, 0.5, int16(1), false)
	f.Add(int64(-7), 0.0, 0.0, int16(0), 0.0, uint64(1<<7), 0.0, 1.0, 1.0, int16(3), true)
	f.Add(int64(99), 1.0, 1.0, int16(-2), 1.5, ^uint64(0), -0.5, 0.0, 0.3, int16(-1), true)
	f.Fuzz(func(t *testing.T, seed int64,
		drop, trunc float64, burst int16,
		corrupt float64, mask uint64, skew float64,
		panicRate, errRate float64, failAttempts int16, tolerate bool) {

		plan := &Plan{
			Seed:     seed,
			DropRate: drop, TruncateRate: trunc, TruncateBurst: int(burst),
			CorruptRate: corrupt, CorruptMask: mask,
			PeriodSkew: skew,
			PanicRate:  panicRate, ErrorRate: errRate,
			FailAttempts: int(failAttempts),
		}
		if err := plan.Validate(); err != nil {
			// Invalid plans must be rejected with a typed cause, and
			// injectors for them must still not panic the sampler below —
			// callers validate, but the pipeline must survive a miss.
			var typed bool
			for _, want := range []error{ErrBadRate, ErrBadBurst, ErrBadSkew, ErrBadAttempts, ErrBadDelay} {
				typed = typed || errors.Is(err, want)
			}
			if !typed {
				t.Fatalf("Validate returned untyped error %v", err)
			}
			if plan.DropRate < 0 || plan.DropRate > 1 || plan.PeriodSkew < 0 || plan.PeriodSkew >= 1 {
				return // rates the injector math cannot make sense of
			}
		}

		const shards = 4
		_, rep, err := parsim.RunCtx(shards, parsim.Options{Workers: 2, Retries: int(failAttempts) + 1, Tolerate: tolerate},
			func(ctx context.Context, i int) (int, error) {
				key := fmt.Sprintf("fuzz/shard/%d", i)
				if ferr := plan.Shard(key, parsim.Attempt(ctx)).Apply(); ferr != nil {
					return 0, ferr
				}
				s := pmu.NewSampler(pmu.Config{
					Geom: mem.L1Default(), Period: pmu.Fixed(7), Seed: seed,
					Faults: plan.Injector(key),
				})
				var blk trace.RefBlock
				for r := 0; r < 500; r++ {
					blk.Append(trace.Ref{IP: 0x1000, Addr: uint64(r) * 4096})
				}
				s.RefBlock(&blk)
				return len(s.Samples), nil
			})
		if rep == nil {
			t.Fatal("RunCtx returned no report")
		}
		if err != nil {
			var te *parsim.TaskError
			if !errors.As(err, &te) {
				t.Fatalf("sweep failed with untyped error %v", err)
			}
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("injected failure lost its root cause: %v", err)
			}
			return
		}
		if !tolerate && rep.ShardsLost() != 0 {
			t.Fatalf("nil error but %d/%d shards lost", rep.ShardsLost(), shards)
		}
	})
}
