// Package parsim is the deterministic parallel simulation engine: it fans
// independent (workload, geometry, pad) simulation tasks across a worker
// pool and reassembles their results in canonical task order, so a sweep
// run at -j 8 produces byte-identical reports to the same sweep at -j 1.
//
// Determinism rests on two rules the package enforces or supports:
//
//  1. Tasks share nothing. Each task builds its own workload, cache and
//     sampler instances; parsim only schedules and collects. Results land
//     at their task's index regardless of completion order, and errors are
//     reported for the lowest failing index, which is the error a serial
//     loop would have hit first.
//
//  2. Randomness is derived, not shared. A task that needs an RNG seeds it
//     with DeriveSeed(root, key) where key is a stable task name — never
//     with a shared RNG, a worker id, or anything scheduling-dependent.
//
// The engine also owns the pipeline's failure story (see run.go): worker
// panics are recovered into typed ShardErrors, failed tasks retry with
// capped exponential backoff, a per-attempt deadline watchdog cancels hung
// work via context, completed tasks can checkpoint to disk for -resume, and
// sweeps can tolerate lost shards instead of failing (degraded mode). None
// of that machinery feeds wall-clock into results, so the determinism
// guarantee survives every recovery path.
package parsim

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync/atomic"
	"time"
)

// defaultWorkers is the pool size used when Options.Workers is 0.
// 0 means "use GOMAXPROCS"; it is set process-wide by the -j flag of
// cmd/ccprof and cmd/experiments.
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the process-wide default pool size used when
// Options.Workers is 0. n <= 0 restores the GOMAXPROCS default.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers returns the resolved default pool size.
func DefaultWorkers() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Options configures one Run.
type Options struct {
	// Workers is the pool size; 0 selects DefaultWorkers().
	Workers int

	// Retries re-runs a failed task (error, recovered panic, or timeout)
	// at once, up to this many additional attempts, before declaring the
	// shard lost. 0 fails on the first error, as a serial loop would.
	Retries int

	// Deadline is the per-attempt watchdog: each attempt runs under a
	// context cancelled after this duration, and the worker stops waiting
	// for it at the deadline (the attempt counts as a timeout and is
	// retried like any failure). A hung attempt's goroutine is abandoned;
	// cooperative tasks observe their context and exit. 0 disables the
	// watchdog and runs attempts on the worker itself.
	Deadline time.Duration

	// Tolerate switches a sweep to graceful degradation: shards that
	// exhaust their attempts keep the zero value at their index, the run
	// returns a nil error, and the lost shards are listed (with typed
	// causes) in Report.Failed. Without Tolerate every task still runs,
	// but the sweep fails with the lowest failing index, as before.
	Tolerate bool

	// Checkpoint, when non-nil, persists each completed task's result to
	// disk so a sweep killed mid-run can be re-run with Resume and skip
	// the shards that already finished. See Checkpoint for the contract.
	Checkpoint *Checkpoint
}

// A TaskError wraps the error of one failed task with its index, so a
// sweep's failure report names the same task no matter how many workers
// raced past it.
type TaskError struct {
	Index int
	Err   error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("parsim: task %d: %v", e.Index, e.Err)
}

// Unwrap returns the underlying task error.
func (e *TaskError) Unwrap() error { return e.Err }

// Run executes fn(0) … fn(n-1) on a worker pool and returns the results in
// index order. Every task runs to completion even when another task fails
// (tasks are independent simulations; partial sweeps would make the
// surviving results depend on scheduling). On failure Run still returns the
// full result slice — failed indexes hold the zero value — together with a
// TaskError for the lowest failing index.
//
// fn must not share mutable state across indexes; it may be called from
// multiple goroutines concurrently, but never twice for the same index.
// Tasks that want retry/deadline awareness or cancellation take RunCtx.
func Run[T any](n int, opts Options, fn func(i int) (T, error)) ([]T, error) {
	results, _, err := RunCtx(n, opts, func(_ context.Context, i int) (T, error) {
		return fn(i)
	})
	return results, err
}

// DeriveSeed derives a task RNG seed from a root seed and a stable task
// key: seed = root ⊕ FNV-1a(key). Distinct keys decorrelate the tasks'
// sampling phases; the same (root, key) pair always yields the same seed,
// so results do not depend on worker count or scheduling order.
func DeriveSeed(root int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return root ^ int64(h.Sum64())
}
