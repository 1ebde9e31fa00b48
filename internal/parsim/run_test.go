package parsim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestAttemptOutsideParsim(t *testing.T) {
	if got := Attempt(context.Background()); got != 0 {
		t.Errorf("Attempt(Background) = %d, want 0", got)
	}
}

// TestRunCtxPanicRecovery: a panicking task must not kill the sweep; it
// surfaces as a typed ShardError with KindPanic, preserving the panic value
// in the error chain.
func TestRunCtxPanicRecovery(t *testing.T) {
	boom := errors.New("injected panic cause")
	for _, workers := range []int{1, 4} {
		res, rep, err := RunCtx(8, Options{Workers: workers}, func(_ context.Context, i int) (int, error) {
			if i == 3 {
				panic(boom)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: sweep with a panicking shard returned nil error", workers)
		}
		var te *TaskError
		if !errors.As(err, &te) || te.Index != 3 {
			t.Fatalf("workers=%d: error %v is not a TaskError for index 3", workers, err)
		}
		var se *ShardError
		if !errors.As(err, &se) {
			t.Fatalf("workers=%d: error %v has no ShardError", workers, err)
		}
		if se.Kind != KindPanic || se.Index != 3 || se.Attempts != 1 {
			t.Errorf("workers=%d: ShardError = %+v, want panic at index 3 after 1 attempt", workers, se)
		}
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: panic value lost from the chain: %v", workers, err)
		}
		var pe *PanicError
		if !errors.As(err, &pe) || !strings.Contains(pe.Stack, "run_test.go") {
			t.Errorf("workers=%d: PanicError lacks the recovery stack", workers)
		}
		if rep.Panics != 1 {
			t.Errorf("workers=%d: Report.Panics = %d, want 1", workers, rep.Panics)
		}
		for i, v := range res {
			want := i
			if i == 3 {
				want = 0
			}
			if v != want {
				t.Errorf("workers=%d: result[%d] = %d, want %d", workers, i, v, want)
			}
		}
	}
}

// TestRunCtxRetry: a shard failing its first attempts succeeds after
// deterministic retries; the report counts exactly the retries performed,
// independent of worker count.
func TestRunCtxRetry(t *testing.T) {
	const n = 20
	for _, workers := range []int{1, 4, 8} {
		res, rep, err := RunCtx(n, Options{Workers: workers, Retries: 2},
			func(ctx context.Context, i int) (int, error) {
				// Shards divisible by 5 panic on attempt 0 and error on
				// attempt 1, then succeed; shard 7 errors once.
				attempt := Attempt(ctx)
				if i%5 == 0 && attempt == 0 {
					panic(fmt.Sprintf("shard %d first attempt", i))
				}
				if i%5 == 0 && attempt == 1 {
					return 0, errors.New("second attempt")
				}
				if i == 7 && attempt == 0 {
					return 0, errors.New("transient")
				}
				return i * 10, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range res {
			if v != i*10 {
				t.Errorf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*10)
			}
		}
		// Shards 0,5,10,15: two retries each; shard 7: one. Panics: one each
		// for 0,5,10,15.
		if rep.Retries != 9 || rep.Panics != 4 {
			t.Errorf("workers=%d: Report{Retries: %d, Panics: %d}, want {9, 4}", workers, rep.Retries, rep.Panics)
		}
		if rep.ShardsLost() != 0 || rep.Degraded() {
			t.Errorf("workers=%d: Report = %+v, want all %d completed", workers, rep, n)
		}
	}
}

// TestRunCtxRetriesExhausted: a shard that always fails exhausts its
// attempts and reports the attempt count.
func TestRunCtxRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	_, rep, err := RunCtx(1, Options{Workers: 1, Retries: 3}, func(_ context.Context, i int) (int, error) {
		calls.Add(1)
		return 0, errors.New("always")
	})
	if err == nil {
		t.Fatal("exhausted shard returned nil error")
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Attempts != 4 || se.Kind != KindError {
		t.Fatalf("ShardError = %+v, want 4 attempts of kind error", se)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("task ran %d times, want 4", got)
	}
	if rep.Retries != 3 {
		t.Errorf("Report.Retries = %d, want 3", rep.Retries)
	}
}

// TestRunCtxWatchdog: an attempt that hangs is cancelled at the deadline,
// counted as a timeout, and retried; the retry observes the attempt number
// and returns promptly.
func TestRunCtxWatchdog(t *testing.T) {
	res, rep, err := RunCtx(3, Options{Workers: 2, Retries: 1, Deadline: 50 * time.Millisecond},
		func(ctx context.Context, i int) (string, error) {
			if i == 1 && Attempt(ctx) == 0 {
				// Hang far beyond the deadline, cooperatively.
				select {
				case <-ctx.Done():
					return "", ctx.Err()
				case <-time.After(30 * time.Second):
					return "unreachable", nil
				}
			}
			return fmt.Sprintf("ok-%d", i), nil
		})
	if err != nil {
		t.Fatalf("watchdog sweep failed: %v", err)
	}
	if res[1] != "ok-1" {
		t.Errorf("result[1] = %q, want the retry's result", res[1])
	}
	if rep.Timeouts != 1 || rep.Retries != 1 {
		t.Errorf("Report{Timeouts: %d, Retries: %d}, want {1, 1}", rep.Timeouts, rep.Retries)
	}
}

// TestRunCtxWatchdogExhausted: a shard that hangs every attempt is reported
// as a typed timeout failure.
func TestRunCtxWatchdogExhausted(t *testing.T) {
	_, rep, err := RunCtx(1, Options{Workers: 1, Deadline: 20 * time.Millisecond},
		func(ctx context.Context, i int) (int, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		})
	var se *ShardError
	if !errors.As(err, &se) || se.Kind != KindTimeout {
		t.Fatalf("error %v is not a timeout ShardError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout must wrap context.DeadlineExceeded: %v", err)
	}
	if rep.Timeouts != 1 {
		t.Errorf("Report.Timeouts = %d, want 1", rep.Timeouts)
	}
}

// TestRunCtxTolerate: degraded mode returns nil error, zero values at lost
// indexes, and a typed failure list.
func TestRunCtxTolerate(t *testing.T) {
	res, rep, err := RunCtx(10, Options{Workers: 4, Tolerate: true}, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			return 0, errors.New("lost")
		}
		if i == 6 {
			panic("lost too")
		}
		return i + 1, nil
	})
	if err != nil {
		t.Fatalf("tolerated sweep returned error: %v", err)
	}
	if !rep.Degraded() || rep.ShardsLost() != 2 {
		t.Fatalf("Report = %+v, want 2 lost", rep)
	}
	if rep.Failed[0].Index != 2 || rep.Failed[0].Kind != KindError ||
		rep.Failed[1].Index != 6 || rep.Failed[1].Kind != KindPanic {
		t.Errorf("Failed = [%v, %v], want error@2 then panic@6", rep.Failed[0], rep.Failed[1])
	}
	for i, v := range res {
		want := i + 1
		if i == 2 || i == 6 {
			want = 0
		}
		if v != want {
			t.Errorf("result[%d] = %d, want %d", i, v, want)
		}
	}
}

// checkpointLines reads the checkpoint file's raw lines.
func checkpointLines(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
}

type ckResult struct {
	Index int     `json:"index"`
	Score float64 `json:"score"`
}

// TestRunCtxCheckpointResume is the crash-recovery contract: a sweep whose
// checkpoint holds a prefix of the work (as after a kill) re-runs only the
// missing shards and produces results identical to an uninterrupted run —
// including a corrupt trailing half-line from the crash itself.
func TestRunCtxCheckpointResume(t *testing.T) {
	const n = 12
	task := func(_ context.Context, i int) (ckResult, error) {
		return ckResult{Index: i, Score: float64(i) / 3}, nil
	}
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ckpt")
	want, rep, err := RunCtx(n, Options{Workers: 3, Checkpoint: &Checkpoint{Path: full}}, task)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 0 || rep.ShardsLost() != 0 {
		t.Fatalf("clean run Report = %+v", rep)
	}
	lines := checkpointLines(t, full)
	if len(lines) != n {
		t.Fatalf("checkpoint holds %d lines, want %d", len(lines), n)
	}

	// Simulate the kill: keep 5 completed lines plus a torn partial line.
	partial := filepath.Join(dir, "partial.ckpt")
	torn := strings.Join(lines[:5], "\n") + "\n" + lines[5][:len(lines[5])/2]
	if err := os.WriteFile(partial, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	var reran atomic.Int64
	got, rep2, err := RunCtx(n, Options{Workers: 3, Checkpoint: &Checkpoint{Path: partial, Resume: true}},
		func(ctx context.Context, i int) (ckResult, error) {
			reran.Add(1)
			return task(ctx, i)
		})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed results differ:\n got %+v\nwant %+v", got, want)
	}
	if rep2.Restored != 5 {
		t.Errorf("Report.Restored = %d, want 5 (torn line re-runs)", rep2.Restored)
	}
	if reran.Load() != n-5 {
		t.Errorf("resume re-ran %d shards, want %d", reran.Load(), n-5)
	}
	// The resumed checkpoint must now be complete: resuming again runs
	// nothing.
	_, rep3, err := RunCtx(n, Options{Workers: 3, Checkpoint: &Checkpoint{Path: partial, Resume: true}},
		func(_ context.Context, i int) (ckResult, error) {
			t.Errorf("shard %d ran despite a complete checkpoint", i)
			return ckResult{}, nil
		})
	if err != nil || rep3.Restored != n {
		t.Errorf("second resume: err %v, Restored %d, want nil, %d", err, rep3.Restored, n)
	}
}

// TestRunCtxCheckpointInterruptedByFailure: the motivating scenario — a
// sweep dies on a shard error, completed shards persist, and the re-run
// with Resume skips them while fixing the failure.
func TestRunCtxCheckpointInterruptedByFailure(t *testing.T) {
	const n = 8
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	_, _, err := RunCtx(n, Options{Workers: 1, Checkpoint: &Checkpoint{Path: path}},
		func(_ context.Context, i int) (int, error) {
			if i == 5 {
				return 0, errors.New("fatal shard")
			}
			return i * i, nil
		})
	if err == nil {
		t.Fatal("first run should fail")
	}
	res, rep, err := RunCtx(n, Options{Workers: 1, Checkpoint: &Checkpoint{Path: path, Resume: true}},
		func(_ context.Context, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != n-1 {
		t.Errorf("Restored = %d, want %d", rep.Restored, n-1)
	}
	for i, v := range res {
		if v != i*i {
			t.Errorf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestRunCtxCheckpointTruncatesWithoutResume: without Resume a stale file
// must not leak results into a fresh sweep.
func TestRunCtxCheckpointTruncatesWithoutResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stale.ckpt")
	if err := os.WriteFile(path, []byte(`{"i":0,"v":999}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, rep, err := RunCtx(2, Options{Workers: 1, Checkpoint: &Checkpoint{Path: path}},
		func(_ context.Context, i int) (int, error) { return i + 40, nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 0 || res[0] != 40 {
		t.Errorf("stale checkpoint leaked: Restored %d, res %v", rep.Restored, res)
	}
	if lines := checkpointLines(t, path); len(lines) != 2 {
		t.Errorf("truncated checkpoint holds %d lines, want 2", len(lines))
	}
}

// TestRunCtxCheckpointUnwritable: an unopenable checkpoint path is a typed,
// immediate error — not a silent non-persisted sweep.
func TestRunCtxCheckpointUnwritable(t *testing.T) {
	_, _, err := RunCtx(2, Options{Workers: 1, Checkpoint: &Checkpoint{Path: filepath.Join(t.TempDir(), "no", "such", "dir", "x.ckpt")}},
		func(_ context.Context, i int) (int, error) { return i, nil })
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("unwritable checkpoint: err = %v, want checkpoint error", err)
	}
}

// TestRunCtxFailedShardsNotCheckpointed: lost shards must re-run on resume.
func TestRunCtxFailedShardsNotCheckpointed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deg.ckpt")
	_, rep, err := RunCtx(4, Options{Workers: 1, Tolerate: true, Checkpoint: &Checkpoint{Path: path}},
		func(_ context.Context, i int) (int, error) {
			if i == 1 {
				return 0, errors.New("lost")
			}
			return i, nil
		})
	if err != nil || rep.ShardsLost() != 1 {
		t.Fatalf("setup run: err %v, lost %d", err, rep.ShardsLost())
	}
	res, rep2, err := RunCtx(4, Options{Workers: 1, Checkpoint: &Checkpoint{Path: path, Resume: true}},
		func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Restored != 3 || res[1] != 1 {
		t.Errorf("lost shard not re-run: Restored %d, res %v", rep2.Restored, res)
	}
}
