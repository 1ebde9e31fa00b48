package ccprofd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// newTestDaemon builds and starts a daemon over dir, wired to an
// httptest server, and drains both on cleanup.
func newTestDaemon(t *testing.T, dir string, opts Options) (*Daemon, *httptest.Server) {
	t.Helper()
	opts.DataDir = dir
	if opts.DrainTimeout == 0 {
		opts.DrainTimeout = 30 * time.Second
	}
	d, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		d.Drain()
	})
	return d, srv
}

// postJob submits a spec and returns the decoded response and status.
func postJob(t *testing.T, url string, spec Spec) (Job, int) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job Job
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
	}
	return job, resp.StatusCode
}

// waitTerminal polls a job until done/failed.
func waitTerminal(t *testing.T, url, id string) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job Job
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.State == StateDone || job.State == StateFailed {
			return job
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Job{}
}

// getResult fetches a job's artifact; returns body and status.
func getResult(t *testing.T, url, id string) (string, int) {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	return b.String(), resp.StatusCode
}

func TestDaemonJobLifecycle(t *testing.T) {
	d, srv := newTestDaemon(t, t.TempDir(), Options{Workers: 2})
	job, status := postJob(t, srv.URL, Spec{Kind: KindProfile, Workload: "nw"})
	if status != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", status)
	}
	if job.ID == "" || job.State != StateQueued {
		t.Fatalf("accepted job = %+v", job)
	}
	done := waitTerminal(t, srv.URL, job.ID)
	if done.State != StateDone || done.Artifact == "" {
		t.Fatalf("job finished as %+v", done)
	}
	body, status := getResult(t, srv.URL, job.ID)
	if status != http.StatusOK {
		t.Fatalf("GET result: status %d, body %s", status, body)
	}
	if !strings.Contains(body, "CCProf report for nw") || !strings.Contains(body, "CONFLICT MISSES DETECTED") {
		t.Fatalf("artifact missing the conflict report:\n%s", body)
	}
	// The artifact hash must be visible and verifiable via the store.
	if got, err := d.store.Get(done.Artifact); err != nil || string(got) != body {
		t.Fatalf("store.Get(%s) = %v; artifact mismatch", done.Artifact, err)
	}

	// Liveness, readiness and the obs surface live on the same mux.
	for path, want := range map[string]string{
		"/healthz": "ok",
		"/readyz":  "ready",
		"/metrics": "ccprofd.jobs_submitted",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(b.String(), want) {
			t.Errorf("GET %s: status %d, body %.200s", path, resp.StatusCode, b.String())
		}
	}
}

func TestDaemonValidationAndLookups(t *testing.T) {
	_, srv := newTestDaemon(t, t.TempDir(), Options{})
	for name, spec := range map[string]Spec{
		"unknown kind":       {Kind: "bake"},
		"missing workload":   {Kind: KindProfile},
		"unknown workload":   {Kind: KindProfile, Workload: "doom"},
		"bad variant":        {Kind: KindProfile, Workload: "nw", Variant: "debug"},
		"unknown experiment": {Kind: KindExperiment, Experiment: "fig99"},
		"negative threads":   {Kind: KindProfile, Workload: "nw", Threads: -1},
		"bad fault rate":     {Kind: KindProfile, Workload: "nw", FaultDrop: 1.5},
	} {
		if _, status := postJob(t, srv.URL, spec); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}
	// Unknown field in the body is a 400, not silently ignored.
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"profile","workload":"nw","wrokload":"typo"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown JSON field: status %d, want 400", resp.StatusCode)
	}
	// Unknown job and premature result.
	if _, status := getResult(t, srv.URL, "j999999"); status != http.StatusNotFound {
		t.Errorf("result of unknown job: status %d, want 404", status)
	}
}

// TestDaemonRejectsOversizedSpec: a POST /jobs body over maxSpecBytes is
// refused with 413 before anything is decoded into a job — no job is
// created and the journal is untouched — while a normal spec is still
// accepted.
func TestDaemonRejectsOversizedSpec(t *testing.T) {
	dir := t.TempDir()
	d, _ := newTestDaemon(t, dir, Options{Workers: 1})
	journal := filepath.Join(dir, "jobs.journal")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
		return rec
	}

	huge := `{"kind":"profile","workload":"` + strings.Repeat("x", maxSpecBytes) + `"}`
	rec := post(huge)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: status %d, want 413", rec.Code)
	}
	if rec.Body.Len() > 1024 {
		t.Errorf("413 reply is %d bytes; it must not echo the body", rec.Body.Len())
	}
	if jobs := d.Jobs(); len(jobs) != 0 {
		t.Errorf("oversized spec created jobs: %+v", jobs)
	}
	if after, err := os.ReadFile(journal); err != nil || !bytes.Equal(after, before) {
		t.Errorf("oversized spec touched the journal (%d -> %d bytes, err %v)", len(before), len(after), err)
	}

	if rec := post(`{"kind":"profile","workload":"nw"}`); rec.Code != http.StatusAccepted {
		t.Fatalf("normal spec: status %d, want 202 (body %s)", rec.Code, rec.Body)
	}
}

// TestDaemonRejectsTooManyThreads: a profile spec asking for more threads
// than core.MaxThreads is refused with 400 before a job exists — the
// journal is untouched — while the limit itself is still accepted.
func TestDaemonRejectsTooManyThreads(t *testing.T) {
	dir := t.TempDir()
	d, _ := newTestDaemon(t, dir, Options{Workers: 1})
	journal := filepath.Join(dir, "jobs.journal")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
		return rec
	}
	goroutines := runtime.NumGoroutine()
	for _, n := range []int{core.MaxThreads + 1, 1000000000} {
		rec := post(fmt.Sprintf(`{"kind":"profile","workload":"kripke","threads":%d}`, n))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("threads %d: status %d, want 400 (body %s)", n, rec.Code, rec.Body)
		}
	}
	if jobs := d.Jobs(); len(jobs) != 0 {
		t.Errorf("over-limit specs created jobs: %+v", jobs)
	}
	if after, err := os.ReadFile(journal); err != nil || !bytes.Equal(after, before) {
		t.Errorf("over-limit specs touched the journal (%d -> %d bytes, err %v)", len(before), len(after), err)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the refusals, %d before", n, goroutines)
	}
	body := fmt.Sprintf(`{"kind":"profile","workload":"nw","threads":%d}`, core.MaxThreads)
	if rec := post(body); rec.Code != http.StatusAccepted {
		t.Fatalf("threads at the limit: status %d, want 202 (body %s)", rec.Code, rec.Body)
	}
}

func TestDaemonBackpressure(t *testing.T) {
	d, srv := newTestDaemon(t, t.TempDir(), Options{Workers: 1, QueueCap: 1})
	// One slow job occupies the worker, one fills the queue, the third
	// must bounce with 429 + Retry-After.
	slow := Spec{Kind: KindProfile, Workload: "nw", FaultSlowMS: 400}
	if _, status := postJob(t, srv.URL, slow); status != http.StatusAccepted {
		t.Fatalf("first job: status %d", status)
	}
	// Wait until the worker picked up the first job, so the queue slot
	// is genuinely free for the second.
	deadline := time.Now().Add(5 * time.Second)
	for d.inflight.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if _, status := postJob(t, srv.URL, slow); status != http.StatusAccepted {
		t.Fatalf("second job: status %d", status)
	}
	body, _ := json.Marshal(slow)
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third job: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// The rejection is visible on /metrics.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(b.String(), "ccprofd.jobs_rejected") {
		t.Fatalf("metrics missing rejection counter: %.300s", b.String())
	}
}

func TestDaemonPanicContainment(t *testing.T) {
	_, srv := newTestDaemon(t, t.TempDir(), Options{Retries: 0})
	// FaultPanic 1 selects every shard; with no retries the job must
	// fail typed as a panic — and the daemon must survive it.
	job, status := postJob(t, srv.URL, Spec{Kind: KindProfile, Workload: "nw", FaultPanic: 1})
	if status != http.StatusAccepted {
		t.Fatalf("POST: status %d", status)
	}
	failed := waitTerminal(t, srv.URL, job.ID)
	if failed.State != StateFailed || failed.FailKind != "panic" {
		t.Fatalf("panicking job finished as %+v, want failed/panic", failed)
	}
	if !strings.Contains(failed.Error, "injected") {
		t.Fatalf("failure error = %q, want the injected panic", failed.Error)
	}
	if _, status := getResult(t, srv.URL, job.ID); status != http.StatusConflict {
		t.Fatalf("result of failed job: status %d, want 409", status)
	}
	// The daemon still accepts and completes work afterwards.
	next, status := postJob(t, srv.URL, Spec{Kind: KindProfile, Workload: "nw"})
	if status != http.StatusAccepted {
		t.Fatalf("post-panic POST: status %d", status)
	}
	if done := waitTerminal(t, srv.URL, next.ID); done.State != StateDone {
		t.Fatalf("post-panic job = %+v", done)
	}
}

func TestDaemonRetryRecoversInjectedPanic(t *testing.T) {
	_, srv := newTestDaemon(t, t.TempDir(), Options{Retries: 1})
	// FailAttempts defaults to 1: the first attempt panics, the retry
	// succeeds, and the report carries the recovery.
	job, status := postJob(t, srv.URL, Spec{Kind: KindProfile, Workload: "nw", FaultPanic: 1})
	if status != http.StatusAccepted {
		t.Fatalf("POST: status %d", status)
	}
	done := waitTerminal(t, srv.URL, job.ID)
	if done.State != StateDone {
		t.Fatalf("job = %+v, want done after retry", done)
	}
	if done.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2 (panic + successful retry)", done.Attempts)
	}
}

func TestDaemonDrainRefusesAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	// Reference artifacts from an uninterrupted daemon.
	specs := []Spec{
		{Kind: KindProfile, Workload: "nw"},
		{Kind: KindProfile, Workload: "adi", Variant: "optimized"},
		{Kind: KindExperiment, Experiment: "fig9", Quick: true},
	}
	want := map[int]string{}
	{
		_, srv := newTestDaemon(t, t.TempDir(), Options{Workers: 1})
		for i, spec := range specs {
			job, status := postJob(t, srv.URL, spec)
			if status != http.StatusAccepted {
				t.Fatalf("reference job %d: status %d", i, status)
			}
			done := waitTerminal(t, srv.URL, job.ID)
			if done.State != StateDone {
				t.Fatalf("reference job %d = %+v", i, done)
			}
			body, _ := getResult(t, srv.URL, job.ID)
			want[i] = body
		}
	}

	// Interrupted daemon: submit all three, drain while the backlog is
	// still queued, restart, and expect byte-identical artifacts.
	d, err := New(Options{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	srv := httptest.NewServer(d.Handler())
	ids := make([]string, len(specs))
	for i, spec := range specs {
		job, status := postJob(t, srv.URL, spec)
		if status != http.StatusAccepted {
			t.Fatalf("job %d: status %d", i, status)
		}
		ids[i] = job.ID
	}
	d.Drain()
	// Draining refuses new submissions and readiness.
	if _, status := postJob(t, srv.URL, specs[0]); status != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: status %d, want 503", status)
	}
	if resp, err := http.Get(srv.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz while draining: status %d, want 503", resp.StatusCode)
		}
	}
	srv.Close()
	if d.Unfinished() == 0 {
		t.Fatal("drain left no unfinished jobs; the interruption tested nothing")
	}

	d2, srv2 := newTestDaemon(t, dir, Options{Workers: 2})
	resumed := d2.Jobs()
	if len(resumed) != len(specs) {
		t.Fatalf("restart replayed %d jobs, want %d", len(resumed), len(specs))
	}
	for i, id := range ids {
		done := waitTerminal(t, srv2.URL, id)
		if done.State != StateDone {
			t.Fatalf("resumed job %s = %+v", id, done)
		}
		body, status := getResult(t, srv2.URL, id)
		if status != http.StatusOK {
			t.Fatalf("resumed result %s: status %d", id, status)
		}
		if body != want[i] {
			t.Errorf("resumed artifact %d differs from the clean run:\n--- clean ---\n%s\n--- resumed ---\n%s", i, want[i], body)
		}
	}
}

func TestDaemonServesNothingCorrupt(t *testing.T) {
	d, srv := newTestDaemon(t, t.TempDir(), Options{})
	job, _ := postJob(t, srv.URL, Spec{Kind: KindProfile, Workload: "nw"})
	done := waitTerminal(t, srv.URL, job.ID)
	// Corrupt the stored artifact out of band.
	path := d.store.Path(done.Artifact)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	body, status := getResult(t, srv.URL, job.ID)
	if status == http.StatusOK {
		t.Fatalf("corrupted artifact served with 200:\n%s", body)
	}
	if !strings.Contains(body, "verification") {
		t.Fatalf("corruption error body = %q, want a verification failure", body)
	}
}

func TestDaemonDerivedSeedsDifferPerJob(t *testing.T) {
	_, srv := newTestDaemon(t, t.TempDir(), Options{Workers: 2})
	// Two identical specs get different derived seeds (different IDs),
	// but both must produce valid reports; pinned seeds collapse to the
	// same artifact.
	pinned := Spec{Kind: KindProfile, Workload: "nw", Seed: 7}
	var hashes []string
	for i := 0; i < 2; i++ {
		job, status := postJob(t, srv.URL, pinned)
		if status != http.StatusAccepted {
			t.Fatalf("pinned job %d: status %d", i, status)
		}
		done := waitTerminal(t, srv.URL, job.ID)
		if done.State != StateDone {
			t.Fatalf("pinned job %d = %+v", i, done)
		}
		hashes = append(hashes, done.Artifact)
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("same pinned seed produced different artifacts: %v", hashes)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New accepted an empty DataDir")
	}
	if _, err := New(Options{DataDir: t.TempDir(), QueueCap: -1}); err == nil {
		t.Fatal("New accepted a negative queue capacity")
	}
	if _, err := New(Options{DataDir: t.TempDir(), Retries: -1}); err == nil {
		t.Fatal("New accepted negative retries")
	}
}

func TestJobSeedDerivation(t *testing.T) {
	a := &Job{ID: "j000000"}
	b := &Job{ID: "j000001"}
	if a.seed(1) == b.seed(1) {
		t.Fatal("different job IDs derived the same seed")
	}
	if a.seed(1) == a.seed(2) {
		t.Fatal("different root seeds derived the same job seed")
	}
	pinned := &Job{ID: "j000002", Spec: Spec{Seed: 42}}
	if pinned.seed(1) != 42 {
		t.Fatalf("pinned seed ignored: %d", pinned.seed(1))
	}
	if fmt.Sprintf("j%06d", 3) != "j000003" {
		t.Fatal("job ID format drifted")
	}
}
