// Package ccprofd turns the ccprof pipeline into a crash-safe
// profiling-as-a-service daemon: an HTTP job server that accepts
// profiling, advisor and experiment jobs, schedules them onto the parsim
// executor with per-job derived seeds, and persists every accepted job to
// a durable journal plus a content-addressed artifact store.
//
// The durability contract mirrors the parsim checkpoint rules:
//
//   - Every accepted job is journaled (JSONL, fsync per event) before the
//     202 reply, so a crash never forgets an accepted job.
//   - Job execution runs under a per-job parsim checkpoint, so a crash
//     mid-job resumes the finished work byte-identically on restart.
//   - Artifacts are stored under their sha256 (temp file + fsync + atomic
//     rename) and re-hashed on every read, so a torn write can never be
//     served and silent corruption is detected, not returned.
//
// Determinism: a job's effective seed is derived from the daemon root seed
// and the job ID, job IDs are sequential, and all profiling runs with
// NoTime set — so the same submission order yields byte-identical
// artifacts whether the daemon ran clean or was killed and resumed.
package ccprofd

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultinj"
	"repro/internal/parsim"
	"repro/internal/workloads"
)

// Kind selects what a job runs.
type Kind string

const (
	// KindProfile profiles one workload variant and renders the ccprof
	// conflict report.
	KindProfile Kind = "profile"
	// KindAdvise runs the tiered pad-advisor sweep for a workload.
	KindAdvise Kind = "advise"
	// KindExperiment runs one named paper experiment.
	KindExperiment Kind = "experiment"
)

// Spec is a job submission — the JSON body of POST /jobs.
type Spec struct {
	Kind Kind `json:"kind"`

	// Workload names the case study for profile and advise jobs.
	Workload string `json:"workload,omitempty"`
	// Variant selects the build for profile jobs: "original" (default)
	// or "optimized".
	Variant string `json:"variant,omitempty"`
	// Period overrides the workload's recommended mean sampling period;
	// it must be at least minPeriod.
	Period uint64 `json:"period,omitempty"`
	// Threshold overrides the short-RCD threshold T (0 = default). It
	// needs no upper bound: the contribution factor's cost does not grow
	// with it (rcd.Tracker.ContributionFactor sums a fixed dense span of
	// the RCD histogram plus the distinct long distances observed).
	Threshold int `json:"threshold,omitempty"`
	// Threads is the simulated thread count for profile jobs (0 = 1).
	Threads int `json:"threads,omitempty"`
	// Seed pins the sampling seed; 0 derives one from the daemon root
	// seed and the job ID.
	Seed int64 `json:"seed,omitempty"`

	// Experiment names the figure/table runner for experiment jobs.
	Experiment string `json:"experiment,omitempty"`
	// Quick runs the experiment at reduced scale.
	Quick bool `json:"quick,omitempty"`

	// DeadlineMS overrides the daemon's per-job deadline (0 = daemon
	// default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Fault fields attach a deterministic faultinj plan to the job, for
	// chaos testing the daemon itself: drops degrade the profile,
	// panics/slowness exercise the containment and retry machinery.
	FaultDrop   float64 `json:"fault_drop,omitempty"`
	FaultPanic  float64 `json:"fault_panic,omitempty"`
	FaultSlowMS int64   `json:"fault_slow_ms,omitempty"`
	FaultSeed   int64   `json:"fault_seed,omitempty"`
}

// ErrBadSpec tags every validation failure of a submitted spec.
var ErrBadSpec = errors.New("ccprofd: invalid job spec")

// minPeriod is the shortest mean sampling period a job may ask for: the
// shortest the paper and the workload registry use (HimenoBMT's
// ProfilePeriod, the first of experiments.Fig8Periods). The bound caps
// the samples a job buffers and analyzes: a period of 1 keeps every L1
// miss, 1,874,700 samples for full-scale HimenoBMT on one thread, against
// 61,539 at 31 (seed 1).
const minPeriod = 31

// Validate rejects malformed specs up front, so the queue and journal
// only ever hold runnable jobs.
func (s *Spec) Validate() error {
	switch s.Kind {
	case KindProfile, KindAdvise:
		if s.Workload == "" {
			return fmt.Errorf("%w: %q jobs need a workload", ErrBadSpec, s.Kind)
		}
		cs, err := workloads.Get(s.Workload)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		switch s.Variant {
		case "", "original", "optimized":
		default:
			return fmt.Errorf("%w: unknown variant %q", ErrBadSpec, s.Variant)
		}
		if s.Kind == KindAdvise && cs.PadBuilder == nil {
			return fmt.Errorf("%w: %s has no pad builder (its fix is not a row pad)", ErrBadSpec, cs.Name)
		}
	case KindExperiment:
		if s.Experiment == "" {
			return fmt.Errorf("%w: experiment jobs need an experiment name", ErrBadSpec)
		}
		if _, ok := experiments.Registry()[s.Experiment]; !ok {
			return fmt.Errorf("%w: unknown experiment %q (known: %v)", ErrBadSpec, s.Experiment, experiments.Names())
		}
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrBadSpec, s.Kind)
	}
	if s.Threshold < 0 || s.Threads < 0 || s.DeadlineMS < 0 || s.FaultSlowMS < 0 {
		return fmt.Errorf("%w: negative threshold/threads/deadline/slow", ErrBadSpec)
	}
	// Both become time.Duration(ms) * time.Millisecond, which wraps
	// negative above this bound, and a deadline ≤ 0 reads as none.
	if maxMS := int64(math.MaxInt64 / time.Millisecond); s.DeadlineMS > maxMS || s.FaultSlowMS > maxMS {
		return fmt.Errorf("%w: deadline/slow above %d ms", ErrBadSpec, maxMS)
	}
	if s.Threads > core.MaxThreads {
		return fmt.Errorf("%w: %d threads, at most %d", ErrBadSpec, s.Threads, core.MaxThreads)
	}
	if s.Period != 0 && s.Period < minPeriod {
		return fmt.Errorf("%w: period %d, at least %d", ErrBadSpec, s.Period, minPeriod)
	}
	if p := s.plan(1); p != nil {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	return nil
}

// plan builds the job's deterministic fault plan; nil when the spec
// injects no faults. seed roots the plan when the spec does not pin
// FaultSeed, so derived-seed jobs get derived fault streams too.
func (s *Spec) plan(seed int64) *faultinj.Plan {
	if s.FaultDrop == 0 && s.FaultPanic == 0 && s.FaultSlowMS == 0 {
		return nil
	}
	p := &faultinj.Plan{
		Seed:      s.FaultSeed,
		DropRate:  s.FaultDrop,
		PanicRate: s.FaultPanic,
	}
	if p.Seed == 0 {
		p.Seed = seed
	}
	if s.FaultSlowMS > 0 {
		p.SlowRate = 1
		p.SlowDelay = time.Duration(s.FaultSlowMS) * time.Millisecond
	}
	return p
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Job is one accepted submission and its progress. The whole struct
// round-trips through the journal.
type Job struct {
	// ID is the sequential job name ("j000001", ...). Sequential IDs make
	// derived seeds a function of submission order alone, which is what
	// lets a resumed daemon reproduce a clean run byte-identically.
	ID   string `json:"id"`
	Seq  uint64 `json:"seq"`
	Spec Spec   `json:"spec"`

	State State `json:"state"`
	// Error and FailKind describe a failed job: the final attempt's error
	// and its parsim kind (error, panic, timeout).
	Error    string `json:"error,omitempty"`
	FailKind string `json:"fail_kind,omitempty"`
	// Artifact is the sha256 of the result in the artifact store, set
	// when State is done.
	Artifact string `json:"artifact,omitempty"`
	// Attempts counts execution attempts (1 = no retries needed).
	Attempts int `json:"attempts,omitempty"`
	// Resumed marks a job re-enqueued from the journal after a restart.
	Resumed bool `json:"resumed,omitempty"`
}

// shardKey is the job's stable faultinj/seed-derivation key.
func (j *Job) shardKey() string { return "ccprofd/job/" + j.ID }

// seed resolves the job's effective sampling seed: the spec's when
// pinned, else derived from the daemon root seed and the job ID.
func (j *Job) seed(root int64) int64 {
	if j.Spec.Seed != 0 {
		return j.Spec.Seed
	}
	return parsim.DeriveSeed(root, j.shardKey())
}
