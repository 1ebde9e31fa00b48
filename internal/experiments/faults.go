package experiments

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faultinj"
	"repro/internal/parsim"
	"repro/internal/pmu"
	"repro/internal/report"
	"repro/internal/stats"
)

// FaultsRates is the injected-fault sweep: the per-sample drop rate, with
// the plan's other sample-fault channels scaled off it (see faultsPlan).
var FaultsRates = []float64{0, 0.05, 0.10, 0.25}

// faultsCheckpoint is the optional sweep-checkpoint configuration set by
// the CLI (-checkpoint/-resume); empty dir disables checkpointing.
var faultsCheckpoint atomic.Pointer[parsim.Checkpoint]

// SetCheckpoint routes experiments that support sweep checkpointing
// (currently faults) to JSONL files under dir; resume loads existing
// entries and skips their shards, so a run killed mid-sweep can be re-run
// to an identical report without redoing completed work. An empty dir
// disables checkpointing.
func SetCheckpoint(dir string, resume bool) {
	if dir == "" {
		faultsCheckpoint.Store(nil)
		return
	}
	faultsCheckpoint.Store(&parsim.Checkpoint{Path: dir, Resume: resume})
}

// faultsPlan is the fault regime at one sweep position: sample faults scale
// with rate, while the infrastructure faults (shard panics, injected
// errors, slowdowns) stay constant so every run exercises the recovery
// machinery. FailAttempts=1 with Retries≥1 means every injected shard
// fault recovers on its first retry — lost shards would make the
// confusion matrix depend on the fault regime's infrastructure half.
// The plan carries the root seed; Shard and Injector derive per-component
// seeds from it by key (deriving here with the same key would cancel the
// XOR and collapse every shard onto one seed).
func faultsPlan(rate float64) *faultinj.Plan {
	return &faultinj.Plan{
		Seed:          23,
		DropRate:      rate,
		TruncateRate:  rate / 16, // bursts of 8: ≈ rate/2 extra loss
		TruncateBurst: 8,
		CorruptRate:   rate / 10,
		PeriodSkew:    rate / 2,
		PanicRate:     0.15,
		ErrorRate:     0.10,
		SlowRate:      0.05,
		SlowDelay:     1e6, // 1ms: pacing only, never in results
		FailAttempts:  1,
	}
}

// FaultsRow is one x-position of the faults experiment: the classifier's
// confusion matrix over the 12 case-study variants (each original variant
// labelled conflict, each optimized variant clean) under one injected
// fault rate, plus the degradation ledger of the runs that produced it.
type FaultsRow struct {
	Rate float64
	stats.Confusion
	// LostFrac is the fraction of raised samples the plan discarded
	// (drops plus truncation bursts) across the 12 profiles.
	LostFrac float64
	// Corrupted counts samples delivered with rewritten addresses.
	Corrupted uint64
	// Retries and Panics are the recovery work the fault plan demands:
	// derived from the plan's deterministic shard decisions, NOT from the
	// engine's execution, so a resumed run (whose restored shards never
	// re-fail) renders the identical report. ShardsLost comes from the
	// engine and must be 0 — retries recover every injected fault.
	Retries    int
	Panics     int
	ShardsLost int
	// ExecRetries, ExecPanics and ExecRestored are the engine's observed
	// counts for this run. Excluded from serialization: they shrink on a
	// checkpoint-resumed run while the report stays byte-identical (the
	// same information reaches obs as parsim.* counters).
	ExecRetries  int `json:"-"`
	ExecPanics   int `json:"-"`
	ExecRestored int `json:"-"`
}

// faultsOutcome is one variant's profiling result under a plan.
type faultsOutcome struct {
	Predicted bool
	Actual    bool
	Kept      uint64
	Dropped   uint64 // discarded samples: drops + truncations
	Corrupted uint64
}

// Faults sweeps the injected fault rate against classifier accuracy: each
// rate profiles all 12 case-study variants under a deterministic fault
// plan (sample drops, truncation bursts, address corruption, period skew,
// and constant-rate shard panics/errors/slowdowns recovered by the sweep
// engine) and scores the conflict classifier against the variants' labels.
// The paper-level claim being defended: CCProf's classification is a
// statistical property of the sample stream, so losing 10% of samples must
// not move the confusion matrix.
func Faults(w io.Writer, scale Scale) ([]FaultsRow, error) {
	cases := caseStudies(scale)
	note := report.DegradedNote{}
	rows := make([]FaultsRow, 0, len(FaultsRates))
	for ri, rate := range FaultsRates {
		opts := parsim.Options{Retries: 2, Tolerate: true}
		if ck := faultsCheckpoint.Load(); ck != nil {
			opts.Checkpoint = &parsim.Checkpoint{
				Path:   filepath.Join(ck.Path, fmt.Sprintf("faults-rate%d.ckpt", ri)),
				Resume: ck.Resume,
			}
		}
		// One task per variant: 2*len(cases) independent profiles.
		outs, rep, err := parsim.RunCtx(2*len(cases), opts, func(ctx context.Context, i int) (faultsOutcome, error) {
			cs := cases[i/2]
			prog, actual := cs.Original, true
			if i%2 == 1 {
				prog, actual = cs.Optimized, false
			}
			key := fmt.Sprintf("faults/rate%d/%s", ri, prog.Name)
			plan := faultsPlan(rate)
			// Infrastructure faults first: this shard may panic, error or
			// stall here, and the engine's retry recovers it.
			if ferr := plan.Shard(key, parsim.Attempt(ctx)).Apply(); ferr != nil {
				return faultsOutcome{}, ferr
			}
			prof, err := core.ProfileProgram(prog, core.ProfileOptions{
				Period: pmu.Uniform(cs.ProfilePeriod),
				Seed:   parsim.DeriveSeed(23, key),
				NoTime: true,
				Faults: plan,
			})
			if err != nil {
				return faultsOutcome{}, err
			}
			an, err := core.Analyze(prof, prog.Binary, prog.Arena, core.AnalyzeOptions{})
			if err != nil {
				return faultsOutcome{}, err
			}
			return faultsOutcome{
				Predicted: an.Conflict,
				Actual:    actual,
				Kept:      uint64(prof.SampleCount()),
				Dropped:   prof.FaultDropped + prof.FaultTruncated,
				Corrupted: prof.FaultCorrupted,
			}, nil
		})
		if err != nil {
			return rows, fmt.Errorf("faults: rate %.2f: %w", rate, err)
		}
		row := FaultsRow{
			Rate:         rate,
			ShardsLost:   rep.ShardsLost(),
			ExecRetries:  rep.Retries,
			ExecPanics:   rep.Panics,
			ExecRestored: rep.Restored,
		}
		// The regime's demanded recovery work, replayed from the plan's
		// deterministic decisions (attempt 0 of every shard): each selected
		// shard fails once and recovers on its single retry.
		for i := 0; i < 2*len(cases); i++ {
			prog := cases[i/2].Original
			if i%2 == 1 {
				prog = cases[i/2].Optimized
			}
			key := fmt.Sprintf("faults/rate%d/%s", ri, prog.Name)
			switch f := faultsPlan(rate).Shard(key, 0); {
			case f.Panic:
				row.Panics++
				row.Retries++
			case f.Err != nil:
				row.Retries++
			}
		}
		var kept, dropped uint64
		for _, o := range outs {
			row.Confusion.Observe(o.Predicted, o.Actual)
			kept += o.Kept
			dropped += o.Dropped
			row.Corrupted += o.Corrupted
		}
		if kept+dropped > 0 {
			row.LostFrac = float64(dropped) / float64(kept+dropped)
		}
		note.ShardsLost += row.ShardsLost
		note.SamplesDropped += dropped
		note.SamplesAltered += row.Corrupted
		note.Retries += row.Retries
		note.PanicsRecovered += row.Panics
		rows = append(rows, row)
	}
	if w != nil {
		t := report.NewTable("Faults — classifier accuracy vs injected fault rate (12 case-study variants)",
			"fault rate", "samples lost", "accuracy", "precision", "recall", "f1",
			"retries", "panics", "shards lost")
		for _, r := range rows {
			t.Row(report.Pct(r.Rate), report.Pct(r.LostFrac), report.Pct(r.Accuracy()),
				report.Pct(r.Precision()), report.Pct(r.Recall()), report.Pct(r.F1()),
				r.Retries, r.Panics, r.ShardsLost)
		}
		if err := t.Write(w); err != nil {
			return rows, err
		}
		if err := note.Write(w); err != nil {
			return rows, err
		}
	}
	return rows, nil
}
