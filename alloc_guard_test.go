package ccprof

// Allocation regression guards for the replay fast path. The sweep
// optimizations (pooled graphs, samplers, trackers, and attribution state;
// SoA block delivery; fused sample+classify) only stay effective if per-task
// allocation stays bounded — a single accidental per-reference or per-sample
// allocation shows up here as an order-of-magnitude jump long before it is
// visible in wall-clock noise.

import (
	"bytes"
	"testing"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/pmu"
	"repro/internal/workloads"
)

// skipAllocCount skips an allocation-count test under -short and under the
// race detector, whose sync.Pool drops Puts at random, so a pooled path
// allocates what it would have reused. CI's non-race "allocation budget
// guard" step runs both budgets.
func skipAllocCount(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation counting is not meaningful under -short or -race")
	}
}

// TestRecommendPadAllocBudget pins the steady-state allocation cost of one
// advisor sweep task: a full RecommendPad over quick-scale ADI with four
// candidate pads, simulation-only, on one worker. The budget is ~2x the
// measured steady state (so pool warm-up jitter and small legitimate changes
// pass) but far below the cost of re-building per-task state from scratch,
// which is the regression this test exists to catch.
func TestRecommendPadAllocBudget(t *testing.T) {
	skipAllocCount(t)
	cs := workloads.NewADI(256, 1)
	opts := advisor.Options{
		Pads:    []uint64{0, 32, 64, 128},
		Workers: 1, // serial: AllocsPerRun pins GOMAXPROCS to 1 anyway
	}
	// Warm the pools: the first sweep constructs every pooled object.
	if _, err := advisor.RecommendPad(cs.PadBuilder, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := advisor.RecommendPad(cs.PadBuilder, opts); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state measured at ~185 allocs per sweep (4 candidate kernels
	// built + profiled + analyzed, reports retained). The pre-optimization
	// code sat at well over 1000 for this task.
	const budget = 500
	if allocs > budget {
		t.Fatalf("RecommendPad sweep allocated %.0f objects/run, budget %d", allocs, budget)
	}
	t.Logf("RecommendPad sweep: %.0f allocs/run (budget %d)", allocs, budget)
}

// TestAnalyzeAllocBudget pins the offline phase's allocations to the
// profile's shape, not its length: with warm pools, ReadProfile+Analyze
// of a profile whose samples are repeated 10x must allocate no more
// objects than the original profile plus a small constant. A per-sample
// allocation anywhere in decoding or attribution (a per-sample
// binary.Read costs two) overshoots the budget by tens of thousands.
func TestAnalyzeAllocBudget(t *testing.T) {
	skipAllocCount(t)
	cs, err := workloads.Get("nw")
	if err != nil {
		t.Fatal(err)
	}
	p := cs.Original
	prof, err := core.ProfileProgram(p, core.ProfileOptions{
		Period: pmu.Uniform(cs.ProfilePeriod), Seed: 42, Threads: 2, NoTime: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	long := *prof
	long.Samples = make([][]pmu.Sample, len(prof.Samples))
	for tid, s := range prof.Samples {
		for range 10 {
			long.Samples[tid] = append(long.Samples[tid], s...)
		}
	}
	allocs := func(saved *core.Profile) float64 {
		var buf bytes.Buffer
		if _, err := saved.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		run := func() {
			prof, err := core.ReadProfile(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.Analyze(prof, p.Binary, p.Arena, core.AnalyzeOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pools
		return testing.AllocsPerRun(5, run)
	}
	short, repeated := allocs(prof), allocs(&long)
	const slack = 32
	if repeated > short+slack {
		t.Fatalf("ReadProfile+Analyze of %d samples allocated %.0f objects/run, of 10x the samples %.0f (budget %.0f)",
			prof.SampleCount(), short, repeated, short+slack)
	}
	t.Logf("ReadProfile+Analyze: %.0f allocs/run for %d samples, %.0f for 10x (budget %.0f)",
		short, prof.SampleCount(), repeated, short+slack)
}
