package ccprofd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/parsim"
)

// Options configures a Daemon.
type Options struct {
	// DataDir holds the daemon's durable state: jobs.journal, store/ and
	// ck/. Required. A restart pointed at the same dir resumes every
	// accepted-but-unfinished job.
	DataDir string
	// QueueCap bounds the admission queue (default 64). A full queue
	// rejects submissions with 429 — backpressure, not buffering.
	QueueCap int
	// Workers is the number of jobs executed concurrently (default 1;
	// per-job determinism never depends on it).
	Workers int
	// Retries re-runs a failed job attempt, containing worker panics and
	// injected faults (default 1).
	Retries int
	// Deadline is the default per-job attempt watchdog (0 = none); a
	// spec's deadline_ms overrides it per job.
	Deadline time.Duration
	// DrainTimeout bounds how long Drain waits for in-flight jobs before
	// hard-cancelling them (default 10s). Queued and cancelled jobs stay
	// journaled and resume on the next start.
	DrainTimeout time.Duration
	// Seed is the root from which per-job seeds are derived (default 1).
	Seed int64
	// Logf receives operational messages (default: discarded).
	Logf func(format string, args ...any)
}

func (o *Options) defaults() error {
	if o.DataDir == "" {
		return errors.New("ccprofd: Options.DataDir is required")
	}
	if o.QueueCap == 0 {
		o.QueueCap = 64
	}
	if o.QueueCap < 0 {
		return fmt.Errorf("ccprofd: invalid queue capacity %d", o.QueueCap)
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Retries < 0 {
		return fmt.Errorf("ccprofd: invalid retries %d", o.Retries)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// jobResult is what round-trips through a job's parsim checkpoint: the
// rendered artifact. Restoring it after a crash skips re-execution and
// reproduces the artifact byte-identically by construction.
type jobResult struct {
	Report string `json:"report"`
}

// Daemon schedules accepted jobs onto a bounded worker pool and owns the
// journal, artifact store and per-job checkpoints. Create with New, wire
// its Handler into an http.Server, call Start, and Drain on shutdown.
type Daemon struct {
	opts    Options
	reg     *obs.Registry
	store   *Store
	journal *Journal
	ckDir   string
	queue   *queue

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []*Job
	nextSeq uint64

	draining   atomic.Bool
	drainCh    chan struct{}
	hardCtx    context.Context
	hardCancel context.CancelFunc
	wg         sync.WaitGroup

	inflight  *obs.Gauge
	submitted *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
}

// New opens the data directory, replays the journal, and prepares (but
// does not start) the daemon. Jobs left unfinished by a previous process
// are re-enqueued when Start runs.
func New(opts Options) (*Daemon, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	ckDir := filepath.Join(opts.DataDir, "ck")
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		return nil, err
	}
	store, err := OpenStore(filepath.Join(opts.DataDir, "store"))
	if err != nil {
		return nil, err
	}
	journal, replayed, err := OpenJournal(filepath.Join(opts.DataDir, "jobs.journal"))
	if err != nil {
		return nil, err
	}
	reg := obs.Default
	hardCtx, hardCancel := context.WithCancel(context.Background())
	d := &Daemon{
		opts:       opts,
		reg:        reg,
		store:      store,
		journal:    journal,
		ckDir:      ckDir,
		queue:      newQueue(opts.QueueCap, reg),
		jobs:       map[string]*Job{},
		drainCh:    make(chan struct{}),
		hardCtx:    hardCtx,
		hardCancel: hardCancel,
		inflight:   reg.Gauge("ccprofd.jobs_inflight"),
		submitted:  reg.Counter("ccprofd.jobs_submitted"),
		completed:  reg.Counter("ccprofd.jobs_completed"),
		failed:     reg.Counter("ccprofd.jobs_failed"),
	}
	for _, j := range replayed {
		d.jobs[j.ID] = j
		d.order = append(d.order, j)
		if j.Seq >= d.nextSeq {
			d.nextSeq = j.Seq + 1
		}
	}
	return d, nil
}

// Start launches the worker pool and re-enqueues every journaled job that
// never reached a terminal state. Restart feeding happens after the
// workers are running, so a backlog larger than the queue drains through
// it rather than deadlocking.
func (d *Daemon) Start() {
	for i := 0; i < d.opts.Workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	d.mu.Lock()
	var resume []*Job
	for _, j := range d.order {
		if j.State == StateQueued {
			resume = append(resume, j)
		}
	}
	d.mu.Unlock()
	for _, j := range resume {
		d.queue.put(j)
		d.opts.Logf("ccprofd: resuming job %s (%s)", j.ID, j.Spec.Kind)
	}
}

// worker pulls jobs until drain. The pre-check keeps a draining worker
// from grabbing one more queued job when both channels are ready.
func (d *Daemon) worker() {
	defer d.wg.Done()
	for {
		select {
		case <-d.drainCh:
			return
		default:
		}
		select {
		case <-d.drainCh:
			return
		case j := <-d.queue.ch:
			d.queue.note()
			d.runJob(j)
		}
	}
}

// runJob executes one job under parsim with a per-job checkpoint: panics
// are contained, retries re-attempt injected and transient failures, and
// a crash mid-job leaves a checkpoint the restarted daemon restores
// instead of re-executing.
func (d *Daemon) runJob(job *Job) {
	d.setState(job, StateRunning)
	d.inflight.Add(1)
	defer d.inflight.Add(-1)

	seed := job.seed(d.opts.Seed)
	deadline := d.opts.Deadline
	if ms := job.Spec.DeadlineMS; ms > 0 {
		deadline = time.Duration(ms) * time.Millisecond
	}
	ckPath := filepath.Join(d.ckDir, job.ID+".ckpt")
	res, rep, err := parsim.RunCtx(1, parsim.Options{
		Workers:    1,
		Retries:    d.opts.Retries,
		Deadline:   deadline,
		Checkpoint: &parsim.Checkpoint{Path: ckPath, Resume: true},
	}, func(ctx context.Context, _ int) (jobResult, error) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		stop := context.AfterFunc(d.hardCtx, cancel)
		defer stop()
		if err := job.Spec.plan(seed).Shard(job.shardKey(), parsim.Attempt(ctx)).Apply(); err != nil {
			return jobResult{}, err
		}
		out, err := executeSpec(ctx, job.Spec, seed)
		if err != nil {
			return jobResult{}, err
		}
		return jobResult{Report: string(out)}, nil
	})

	attempts := 1 + rep.Retries
	if err != nil {
		d.finishFailed(job, err, attempts)
		os.Remove(ckPath)
		return
	}
	hash, err := d.store.Put([]byte(res[0].Report))
	if err != nil {
		d.finishFailed(job, fmt.Errorf("storing artifact: %w", err), attempts)
		return
	}
	if err := d.journal.Done(job.ID, hash, attempts); err != nil {
		// The artifact is durable and Put is idempotent: losing the
		// journal event only means the job re-runs to the same bytes on
		// the next start.
		d.opts.Logf("ccprofd: journaling completion of %s: %v", job.ID, err)
	}
	os.Remove(ckPath)
	d.mu.Lock()
	job.State = StateDone
	job.Artifact = hash
	job.Attempts = attempts
	d.mu.Unlock()
	d.completed.Inc()
	d.opts.Logf("ccprofd: job %s done (%d attempt(s), artifact %.12s…)", job.ID, attempts, hash)
}

// finishFailed records a terminal failure with its parsim error kind.
func (d *Daemon) finishFailed(job *Job, err error, attempts int) {
	kind := parsim.KindError.String()
	var se *parsim.ShardError
	if errors.As(err, &se) {
		kind = se.Kind.String()
		attempts = se.Attempts
	}
	if jerr := d.journal.Failed(job.ID, err.Error(), kind, attempts); jerr != nil {
		d.opts.Logf("ccprofd: journaling failure of %s: %v", job.ID, jerr)
	}
	d.mu.Lock()
	job.State = StateFailed
	job.Error = err.Error()
	job.FailKind = kind
	job.Attempts = attempts
	d.mu.Unlock()
	d.failed.Inc()
	d.opts.Logf("ccprofd: job %s failed (%s): %v", job.ID, kind, err)
}

func (d *Daemon) setState(job *Job, s State) {
	d.mu.Lock()
	job.State = s
	d.mu.Unlock()
}

// Submit validates, journals and enqueues one spec, returning the
// accepted job snapshot. ErrDraining refuses new work during shutdown;
// ErrQueueFull is the backpressure signal (429 upstream).
func (d *Daemon) Submit(spec Spec) (Job, error) {
	if d.draining.Load() {
		return Job{}, ErrDraining
	}
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	d.mu.Lock()
	if d.queue.full() {
		d.mu.Unlock()
		d.queue.reject()
		return Job{}, ErrQueueFull
	}
	seq := d.nextSeq
	d.nextSeq++
	job := &Job{ID: fmt.Sprintf("j%06d", seq), Seq: seq, Spec: spec, State: StateQueued}
	// Journal before enqueue: the reply's promise is "this job survives
	// a crash". A crash after this line but before the enqueue is healed
	// on restart, when the journal re-enqueues the job.
	if err := d.journal.Submit(job); err != nil {
		d.nextSeq = seq
		d.mu.Unlock()
		return Job{}, fmt.Errorf("ccprofd: journaling submission: %w", err)
	}
	d.jobs[job.ID] = job
	d.order = append(d.order, job)
	d.queue.put(job)
	snap := *job
	d.mu.Unlock()
	d.submitted.Inc()
	return snap, nil
}

// Submission refusal errors, mapped to 503 and 429 by the HTTP layer.
var (
	ErrDraining  = errors.New("ccprofd: draining, not accepting jobs")
	ErrQueueFull = errors.New("ccprofd: admission queue full")
)

// Get returns a snapshot of one job.
func (d *Daemon) Get(id string) (Job, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Jobs returns snapshots of every known job in submission order.
func (d *Daemon) Jobs() []Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Job, len(d.order))
	for i, j := range d.order {
		out[i] = *j
	}
	return out
}

// Artifact fetches a done job's verified artifact bytes.
func (d *Daemon) Artifact(job Job) ([]byte, error) {
	return d.store.Get(job.Artifact)
}

// Unfinished counts jobs not yet in a terminal state — what a restart
// will resume.
func (d *Daemon) Unfinished() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, j := range d.order {
		if j.State == StateQueued || j.State == StateRunning {
			n++
		}
	}
	return n
}

// Draining reports whether shutdown has begun (readyz turns 503).
func (d *Daemon) Draining() bool { return d.draining.Load() }

// Drain stops admitting work, lets in-flight jobs finish for up to
// DrainTimeout, then hard-cancels their contexts and closes the journal.
// Queued and cancelled jobs stay journaled in a non-terminal state, so
// the next Start resumes them; nothing accepted is ever dropped.
// Idempotent; concurrent callers all wait for the first drain.
func (d *Daemon) Drain() {
	if !d.draining.CompareAndSwap(false, true) {
		d.wg.Wait()
		return
	}
	close(d.drainCh)
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d.opts.DrainTimeout):
		d.opts.Logf("ccprofd: drain timeout, cancelling in-flight jobs")
		d.hardCancel()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			// A non-cooperative job attempt is abandoned; the journal
			// still holds it as non-terminal, so restart re-runs it.
			d.opts.Logf("ccprofd: abandoning unresponsive job attempt")
		}
	}
	d.journal.Close()
}
