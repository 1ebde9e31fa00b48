package parsim

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// attemptKey is the context key carrying the zero-based attempt number of
// the running task execution.
type attemptKey struct{}

// Attempt returns the zero-based attempt number of the task execution ctx
// belongs to: 0 on the first try, k after k retries. It returns 0 for
// contexts that do not descend from a parsim attempt. Deterministic fault
// injectors key on it to fail a shard's first attempt(s) and succeed once
// the engine has retried (see internal/faultinj).
func Attempt(ctx context.Context) int {
	if v, ok := ctx.Value(attemptKey{}).(int); ok {
		return v
	}
	return 0
}

// ErrKind classifies how a shard failed.
type ErrKind uint8

const (
	// KindError is an ordinary error returned by the task function.
	KindError ErrKind = iota
	// KindPanic is a worker panic the engine recovered.
	KindPanic
	// KindTimeout is an attempt the deadline watchdog cancelled.
	KindTimeout
)

func (k ErrKind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindTimeout:
		return "timeout"
	default:
		return "error"
	}
}

// PanicError wraps a panic recovered from a task attempt, preserving the
// panic value and the goroutine stack at recovery time.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string { return fmt.Sprintf("recovered panic: %v", e.Value) }

// Unwrap exposes a wrapped error panic value to errors.Is/As chains.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// ShardError is the typed failure of one shard after the engine exhausted
// its attempts: which index, how many attempts, what kind of failure, and
// the last attempt's underlying error.
type ShardError struct {
	Index    int
	Attempts int // attempts performed (1 = no retries granted or needed)
	Kind     ErrKind
	Err      error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %d: %s after %d attempt(s): %v", e.Index, e.Kind, e.Attempts, e.Err)
}

// Unwrap returns the last attempt's error.
func (e *ShardError) Unwrap() error { return e.Err }

// Report is a sweep's degraded-mode annotation: everything the recovery
// machinery did, in counts that are functions of the tasks' deterministic
// behavior alone (never of wall clock or scheduling), so reports that
// include them stay byte-identical at any worker count.
type Report struct {
	// Tasks is the sweep size; Completed the tasks that produced a result
	// (including restored ones); Restored the tasks skipped because the
	// checkpoint already held their result.
	Tasks     int
	Completed int
	Restored  int
	// Retries counts re-run attempts beyond each task's first; Panics the
	// worker panics recovered; Timeouts the attempts the deadline
	// watchdog cancelled.
	Retries  int
	Panics   int
	Timeouts int
	// Failed lists the shards lost after all attempts, in ascending index
	// order. Non-empty only under Options.Tolerate (without it the sweep
	// returns an error for the lowest entry instead).
	Failed []*ShardError
}

// ShardsLost returns the number of shards that produced no result.
func (r *Report) ShardsLost() int { return len(r.Failed) }

// observeInto merges the recovery tallies into reg. Counts are
// deterministic for deterministic tasks, so the merged counters keep the
// obs layer's worker-count-independence guarantee (timeouts are the
// exception — they depend on real elapsed time — and occur only when a
// Deadline is configured).
func (r *Report) observeInto(reg *obs.Registry) {
	add := func(name string, n int) {
		if n > 0 {
			reg.Counter(name).Add(uint64(n))
		}
	}
	add("parsim.retries", r.Retries)
	add("parsim.panics_recovered", r.Panics)
	add("parsim.timeouts", r.Timeouts)
	add("parsim.shards_lost", len(r.Failed))
	add("parsim.checkpoint_restored", r.Restored)
	add("parsim.task_errors", len(r.Failed))
}

// taskStats tallies one task's recovery activity.
type taskStats struct {
	retries, panics, timeouts int
}

// RunCtx is Run with the full failure story: fn receives a context that
// carries the attempt number (Attempt) and is cancelled at the per-attempt
// Deadline. Panics are recovered into typed errors, failed attempts retry
// per Options, completed tasks checkpoint when configured, and the returned
// Report annotates everything the recovery machinery did. Results are in
// index order exactly as for Run; under Options.Tolerate lost shards hold
// the zero value and err is nil.
func RunCtx[T any](n int, opts Options, fn func(ctx context.Context, i int) (T, error)) ([]T, *Report, error) {
	rep := &Report{Tasks: n}
	if n <= 0 {
		return nil, rep, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}

	// Sweep-level observability: deterministic run/task counters plus the
	// worker-count gauge (configuration), and wall-clock spans for the
	// sweep and each worker's busy time ("parsim.worker_busy" count vs
	// "parsim.run" total is the pool utilization). Spans live only in the
	// timing section of snapshots, never in experiment output.
	reg := obs.Default
	reg.Counter("parsim.runs").Inc()
	reg.Counter("parsim.tasks").Add(uint64(n))
	reg.Gauge("parsim.workers").Set(int64(workers))
	defer reg.StartPhase("parsim.run")()

	results := make([]T, n)
	errs := make([]*ShardError, n)

	var ck *ckWriter
	restored := make([]bool, n)
	if opts.Checkpoint != nil {
		var err error
		ck, err = openCheckpoint(opts.Checkpoint, restored, results)
		if err != nil {
			return results, rep, fmt.Errorf("parsim: checkpoint %s: %w", opts.Checkpoint.Path, err)
		}
		defer ck.close()
		for _, r := range restored {
			if r {
				rep.Restored++
			}
		}
	}

	// Workers tally their tasks' recovery stats under mu; the totals are
	// sums over tasks, hence scheduling-independent.
	var mu sync.Mutex
	runTask := func(i int) {
		if restored[i] {
			return
		}
		v, stats, serr := attemptLoop(i, opts, fn)
		results[i], errs[i] = v, serr
		if serr == nil && ck != nil {
			ck.store(i, v)
		}
		mu.Lock()
		rep.Retries += stats.retries
		rep.Panics += stats.panics
		rep.Timeouts += stats.timeouts
		mu.Unlock()
	}

	if workers == 1 {
		// Serial fallback: same semantics, no pool goroutines. This is
		// the path -j 1 and GOMAXPROCS=1 CI exercise against the pool.
		done := reg.StartPhase("parsim.worker_busy")
		for i := 0; i < n; i++ {
			runTask(i)
		}
		done()
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				start := time.Now()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						reg.ObservePhase("parsim.worker_busy", time.Since(start))
						return
					}
					runTask(i)
				}
			}()
		}
		wg.Wait()
	}

	for _, serr := range errs {
		if serr != nil {
			rep.Failed = append(rep.Failed, serr)
		}
	}
	rep.Completed = n - len(rep.Failed)
	rep.observeInto(reg)

	if ck != nil {
		if err := ck.err(); err != nil {
			// A checkpoint that stopped persisting is an environment
			// failure: resuming from it would silently re-run shards, so
			// surface it even under Tolerate.
			return results, rep, fmt.Errorf("parsim: checkpoint %s: %w", opts.Checkpoint.Path, err)
		}
	}
	if len(rep.Failed) > 0 && !opts.Tolerate {
		first := rep.Failed[0]
		return results, rep, &TaskError{Index: first.Index, Err: first}
	}
	return results, rep, nil
}

// attemptLoop drives one task through its attempts, classifying failures
// and pacing retries with capped exponential backoff.
func attemptLoop[T any](i int, opts Options, fn func(ctx context.Context, i int) (T, error)) (T, taskStats, *ShardError) {
	var stats taskStats
	backoff := opts.Backoff
	attempts := opts.Retries + 1
	if attempts < 1 {
		// Negative Retries must not skip the task entirely (a zero-attempt
		// loop would fail the shard with a nil cause).
		attempts = 1
	}
	var last error
	var kind ErrKind
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			stats.retries++
			if backoff > 0 {
				time.Sleep(backoff)
				if backoff *= 2; backoff > opts.backoffCap() {
					backoff = opts.backoffCap()
				}
			}
		}
		v, err := runAttempt(i, attempt, opts.Deadline, fn)
		if err == nil {
			return v, stats, nil
		}
		last, kind = err, KindError
		var pe *PanicError
		switch {
		case errors.As(err, &pe):
			kind = KindPanic
			stats.panics++
		case errors.Is(err, context.DeadlineExceeded):
			kind = KindTimeout
			stats.timeouts++
		}
	}
	var zero T
	return zero, stats, &ShardError{Index: i, Attempts: attempts, Kind: kind, Err: last}
}

// runAttempt executes one attempt under the attempt-stamped context,
// recovering panics. With a deadline, the attempt runs on its own goroutine
// and the watchdog stops waiting at the deadline; the abandoned goroutine's
// eventual result lands in a buffered channel and is discarded.
func runAttempt[T any](i, attempt int, deadline time.Duration, fn func(ctx context.Context, i int) (T, error)) (T, error) {
	// Attempt 0 is the overwhelmingly common case (retries only happen
	// under fault injection); Attempt() reads 0 from a bare context, so
	// the first attempt skips the context allocation.
	ctx := context.Background()
	if attempt != 0 {
		ctx = context.WithValue(ctx, attemptKey{}, attempt)
	}
	if deadline <= 0 {
		return protect(ctx, i, fn)
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := protect(ctx, i, fn)
		ch <- outcome{v, err}
	}()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-ctx.Done():
		var zero T
		return zero, fmt.Errorf("parsim: attempt %d exceeded the %s deadline: %w",
			attempt, deadline, context.DeadlineExceeded)
	}
}

// protect calls fn, converting a panic into a *PanicError.
func protect[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: string(debug.Stack())}
		}
	}()
	return fn(ctx, i)
}
