package e2e_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestExperimentsUnknownName: the registry rejects unknown experiment
// names with a one-line error and exit 2.
func TestExperimentsUnknownName(t *testing.T) {
	_, stderr, exit := run(t, "experiments", "-quick", "-run", "no-such-experiment")
	if exit != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", exit, stderr)
	}
	if !strings.Contains(stderr, "no-such-experiment") || strings.Count(strings.TrimSpace(stderr), "\n") != 0 {
		t.Errorf("want a one-line error naming the experiment, got: %q", stderr)
	}
}

// TestInvalidJobs: both CLIs reject a negative -j before doing any work.
func TestInvalidJobs(t *testing.T) {
	for _, tc := range []struct {
		bin  string
		args []string
	}{
		{"experiments", []string{"-j", "-3", "-quick", "-run", "fig9"}},
		{"ccprof", []string{"-j", "-3", "nw"}},
	} {
		_, stderr, exit := run(t, tc.bin, tc.args...)
		if exit != 2 {
			t.Errorf("%s %v: exit %d, want 2 (stderr %q)", tc.bin, tc.args, exit, stderr)
		}
		if !strings.Contains(stderr, "invalid -j") {
			t.Errorf("%s: want one-line invalid -j error, got %q", tc.bin, stderr)
		}
	}
}

// TestExperimentsUnwritableOut: an unwritable -out fails up front with a
// non-zero exit, before any experiment burns time.
func TestExperimentsUnwritableOut(t *testing.T) {
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if f, err := os.CreateTemp(dir, "w"); err == nil {
		f.Close()
		t.Skip("running with privileges that ignore directory permissions")
	}
	out := filepath.Join(dir, "artifacts")
	_, stderr, exit := run(t, "experiments", "-quick", "-run", "fig9", "-out", out)
	if exit == 0 {
		t.Fatalf("unwritable -out exited 0 (stderr %q)", stderr)
	}
	if !strings.Contains(stderr, "output directory") {
		t.Errorf("want an output-directory error, got %q", stderr)
	}
}

// TestExperimentsResumeWithoutCheckpoint: -resume alone is a usage error.
func TestExperimentsResumeWithoutCheckpoint(t *testing.T) {
	_, stderr, exit := run(t, "experiments", "-resume")
	if exit != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", exit, stderr)
	}
	if !strings.Contains(stderr, "-resume requires -checkpoint") {
		t.Errorf("want the -resume usage error, got %q", stderr)
	}
}

// TestCCProfFaultInjection: the -fault-drop flag degrades the profile and
// the report says so; an out-of-range rate is a usage error.
func TestCCProfFaultInjection(t *testing.T) {
	stdout, stderr, exit := run(t, "ccprof", "-fault-drop", "0.3", "nw")
	if exit != 0 {
		t.Fatalf("ccprof -fault-drop 0.3 nw: exit %d, stderr %q", exit, stderr)
	}
	if !strings.Contains(stdout, "degraded: ") || !strings.Contains(stdout, "samples dropped") {
		t.Errorf("degraded run must be annotated:\n%s", stdout)
	}
	if !strings.Contains(stdout, "CONFLICT MISSES DETECTED") {
		t.Errorf("30%% sample loss should not hide NW's conflicts:\n%s", stdout)
	}

	_, stderr, exit = run(t, "ccprof", "-fault-drop", "1.5", "nw")
	if exit != 2 {
		t.Fatalf("ccprof -fault-drop 1.5: exit %d, want 2 (stderr %q)", exit, stderr)
	}
	if !strings.Contains(stderr, "rate outside [0, 1]") {
		t.Errorf("want the typed rate error, got %q", stderr)
	}
}

// TestCCProfFaultDeterminism: the same fault seed reproduces the degraded
// report byte-for-byte; a different seed changes the damage.
func TestCCProfFaultDeterminism(t *testing.T) {
	args := []string{"-fault-drop", "0.2", "-fault-seed", "5", "adi"}
	a, _, exitA := run(t, "ccprof", args...)
	b, _, exitB := run(t, "ccprof", args...)
	if exitA != 0 || exitB != 0 {
		t.Fatalf("exits %d/%d", exitA, exitB)
	}
	// The overhead line carries wall-clock; compare from the degraded
	// annotation down.
	cut := func(s string) string {
		i := strings.Index(s, "degraded:")
		if i < 0 {
			t.Fatalf("no degraded line:\n%s", s)
		}
		return s[i:]
	}
	if cut(a) != cut(b) {
		t.Errorf("same fault seed produced different reports:\n--- a ---\n%s\n--- b ---\n%s", cut(a), cut(b))
	}
	c, _, _ := run(t, "ccprof", "-fault-drop", "0.2", "-fault-seed", "6", "adi")
	if cut(a) == cut(c) {
		t.Errorf("different fault seeds produced identical degraded reports")
	}
}

// TestExperimentsFaultsCheckpointResume drives the crash-resume workflow
// as a user would: run the faults experiment with -checkpoint, delete one
// rate's checkpoint to fake a partial run, then -resume and compare the
// classification table byte-for-byte.
func TestExperimentsFaultsCheckpointResume(t *testing.T) {
	ckdir := t.TempDir()
	full, stderr, exit := run(t, "experiments", "-quick", "-run", "faults", "-checkpoint", ckdir)
	if exit != 0 {
		t.Fatalf("faults with -checkpoint: exit %d, stderr %q", exit, stderr)
	}
	entries, err := filepath.Glob(filepath.Join(ckdir, "faults-rate*.ckpt"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no checkpoint files written (%v)", err)
	}
	// Fake the crash: the last rate never completed.
	if err := os.Remove(entries[len(entries)-1]); err != nil {
		t.Fatal(err)
	}
	resumed, stderr, exit := run(t, "experiments", "-quick", "-run", "faults", "-checkpoint", ckdir, "-resume")
	if exit != 0 {
		t.Fatalf("faults with -resume: exit %d, stderr %q", exit, stderr)
	}
	if full != resumed {
		t.Errorf("resumed report diverged from the uninterrupted one:\n--- full ---\n%s\n--- resumed ---\n%s",
			full, resumed)
	}
	if !strings.Contains(resumed, "degraded: ") {
		t.Errorf("faults report lacks the degraded annotation:\n%s", resumed)
	}
}

// ---- ccprofd: the profiling-as-a-service daemon ----

// daemon wraps one running ccprofd process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr *bytes.Buffer
	eof    chan struct{} // closed once stderr is read to EOF (the process exited)
}

// startDaemon launches ccprofd on an ephemeral port over dataDir and
// waits for its serving line.
func startDaemon(t *testing.T, dataDir string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-data", dataDir}, extra...)
	cmd := exec.Command(filepath.Join(binDir, "ccprofd"), args...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, stderr: &bytes.Buffer{}, eof: make(chan struct{})}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	ready := make(chan string, 1)
	go func() {
		defer close(d.eof)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(d.stderr, line)
			if _, url, ok := strings.Cut(line, "serving on http://"); ok {
				url, _, _ = strings.Cut(url, " ")
				select {
				case ready <- url:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-ready:
		d.url = "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("ccprofd never announced its address; stderr:\n%s", d.stderr)
	}
	return d
}

// drain SIGTERMs the daemon and asserts a clean (exit 0) drain. Its whole
// stderr is in d.stderr when drain returns.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.eof: // read everything before Wait closes the pipe
	case <-time.After(60 * time.Second):
		t.Fatalf("ccprofd still running 60s after SIGTERM; stderr:\n%s", d.stderr)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("ccprofd did not drain cleanly: %v; stderr:\n%s", err, d.stderr)
	}
}

// daemonJob mirrors the job JSON the API returns.
type daemonJob struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error"`
	FailKind string `json:"fail_kind"`
	Artifact string `json:"artifact"`
	Attempts int    `json:"attempts"`
	Resumed  bool   `json:"resumed"`
}

// submit POSTs one job spec (a JSON literal) and requires the given
// status; returns the job on 202.
func (d *daemon) submit(t *testing.T, spec string, wantStatus int) daemonJob {
	t.Helper()
	resp, err := http.Post(d.url+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /jobs %s: status %d, want %d (body %s)", spec, resp.StatusCode, wantStatus, buf.String())
	}
	var job daemonJob
	if wantStatus == http.StatusAccepted {
		if err := json.Unmarshal(buf.Bytes(), &job); err != nil {
			t.Fatal(err)
		}
	}
	return job
}

// await polls a job to a terminal state.
func (d *daemon) await(t *testing.T, id string) daemonJob {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.url + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job daemonJob
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.State == "done" || job.State == "failed" {
			return job
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished; stderr:\n%s", id, d.stderr)
	return daemonJob{}
}

// result fetches a job's artifact body and status.
func (d *daemon) result(t *testing.T, id string) (string, int) {
	t.Helper()
	resp, err := http.Get(d.url + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String(), resp.StatusCode
}

// lifecycleSpecs is the chaos job mix both halves of the lifecycle test
// submit: a conflict profile, a clean profile, a profile with injected
// sample drops plus a first-attempt worker panic (recovered by the
// retry), and a quick experiment.
var lifecycleSpecs = []string{
	`{"kind":"profile","workload":"nw"}`,
	`{"kind":"profile","workload":"nw","variant":"optimized","fault_slow_ms":300}`,
	`{"kind":"profile","workload":"adi","fault_drop":0.25,"fault_panic":1,"fault_seed":23}`,
	`{"kind":"experiment","experiment":"fig9","quick":true}`,
}

// storeHashes lists the artifact store's content hashes.
func storeHashes(t *testing.T, dataDir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dataDir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	var hashes []string
	for _, e := range entries {
		hashes = append(hashes, e.Name())
	}
	sort.Strings(hashes)
	return hashes
}

// TestCCProfdLifecycleResume is the acceptance chaos test: a daemon is
// SIGTERMed mid-run with jobs in flight and queued, must drain with exit
// 0 without dropping any accepted job, and after a restart every resumed
// result — and the artifact store itself — must be byte-identical to an
// uninterrupted run of the same submissions. Finally, a deliberately
// corrupted artifact must be refused by hash verification, not served.
func TestCCProfdLifecycleResume(t *testing.T) {
	// Uninterrupted reference run.
	dataA := t.TempDir()
	ref := startDaemon(t, dataA, "-workers", "2")
	want := make([]string, len(lifecycleSpecs))
	for i, spec := range lifecycleSpecs {
		job := ref.submit(t, spec, http.StatusAccepted)
		done := ref.await(t, job.ID)
		if done.State != "done" {
			t.Fatalf("reference job %d finished as %+v", i, done)
		}
		body, status := ref.result(t, job.ID)
		if status != http.StatusOK {
			t.Fatalf("reference result %d: status %d", i, status)
		}
		want[i] = body
	}
	// The fault_panic job must actually have exercised the containment.
	if jobs := ref.jobs(t); jobs[2].Attempts < 2 {
		t.Fatalf("injected panic was not retried: %+v", jobs[2])
	}
	ref.drain(t)

	// Interrupted run: one worker, SIGTERM as soon as the first job is
	// done — the slow job is in flight and the rest are queued.
	dataB := t.TempDir()
	d := startDaemon(t, dataB, "-workers", "1")
	ids := make([]string, len(lifecycleSpecs))
	for i, spec := range lifecycleSpecs {
		ids[i] = d.submit(t, spec, http.StatusAccepted).ID
	}
	first := d.await(t, ids[0])
	if first.State != "done" {
		t.Fatalf("first job = %+v", first)
	}
	d.drain(t)
	if !strings.Contains(d.stderr.String(), "journaled for resume") {
		t.Fatalf("drain did not journal pending jobs; stderr:\n%s", d.stderr)
	}

	// Restart on the same data dir: every accepted job must finish and
	// match the reference bytes.
	d2 := startDaemon(t, dataB, "-workers", "2")
	sawResumed := false
	for _, j := range d2.jobs(t) {
		sawResumed = sawResumed || j.Resumed
	}
	if !sawResumed {
		t.Fatal("restart marked no job as resumed")
	}
	for i, id := range ids {
		done := d2.await(t, id)
		if done.State != "done" {
			t.Fatalf("resumed job %s = %+v; stderr:\n%s", id, done, d2.stderr)
		}
		body, status := d2.result(t, id)
		if status != http.StatusOK {
			t.Fatalf("resumed result %s: status %d", id, status)
		}
		if body != want[i] {
			t.Errorf("artifact %d differs between clean and resumed runs:\n--- clean ---\n%s\n--- resumed ---\n%s", i, want[i], body)
		}
	}
	// The stores converged to identical content-addressed sets.
	if a, b := storeHashes(t, dataA), storeHashes(t, dataB); !equalStrings(a, b) {
		t.Errorf("artifact stores diverged:\nclean:   %v\nresumed: %v", a, b)
	}

	// Corruption: flip one byte of a stored artifact; the daemon must
	// detect the hash mismatch and refuse to serve it.
	lastJob := d2.jobs(t)[len(ids)-1]
	path := filepath.Join(dataB, "store", lastJob.Artifact)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	body, status := d2.result(t, lastJob.ID)
	if status == http.StatusOK {
		t.Fatalf("corrupted artifact served with 200:\n%s", body)
	}
	if !strings.Contains(body, "verification") {
		t.Errorf("corruption refusal does not mention verification: %q", body)
	}
	d2.drain(t)
}

// jobs lists all jobs via GET /jobs.
func (d *daemon) jobs(t *testing.T) []daemonJob {
	t.Helper()
	resp, err := http.Get(d.url + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []daemonJob
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	return jobs
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCCProfdBackpressure saturates a queue of one behind one worker:
// the overflow submission must bounce with 429 + Retry-After, and the
// rejection must be visible on /metrics of the same listener.
func TestCCProfdBackpressure(t *testing.T) {
	d := startDaemon(t, t.TempDir(), "-workers", "1", "-queue", "1")
	slow := `{"kind":"profile","workload":"nw","fault_slow_ms":800}`
	d.submit(t, slow, http.StatusAccepted)
	// Wait for the worker to pick the first job up, freeing the slot.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(d.jobs(t)) > 0 && d.jobs(t)[0].State != "queued" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	d.submit(t, slow, http.StatusAccepted)
	resp, err := http.Post(d.url+"/jobs", "application/json", strings.NewReader(slow))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 reply carries no Retry-After")
	}
	mresp, err := http.Get(d.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
		Gauges   map[string]int64  `json:"gauges"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics is not snapshot JSON: %v\n%s", err, buf.String())
	}
	if snap.Counters["ccprofd.jobs_rejected"] == 0 {
		t.Errorf("ccprofd.jobs_rejected = 0 after a 429; counters: %v", snap.Counters)
	}
	if _, ok := snap.Gauges["ccprofd.queue_depth"]; !ok {
		t.Error("ccprofd.queue_depth gauge missing from /metrics")
	}
	d.drain(t)
}

// TestAdviseCLIMatchesDaemon pins the advise table ccprof -advise and a
// ccprofd advise artifact share: below their header lines (ccprof's
// names the worker count, the artifact's does not) the two are the same
// bytes, and the header names the case study.
func TestAdviseCLIMatchesDaemon(t *testing.T) {
	cli, stderr, exit := run(t, "ccprof", "-advise", "nw")
	if exit != 0 {
		t.Fatalf("ccprof -advise nw: exit %d, stderr %q", exit, stderr)
	}
	d := startDaemon(t, t.TempDir())
	job := d.await(t, d.submit(t, `{"kind":"advise","workload":"nw"}`, http.StatusAccepted).ID)
	if job.State != "done" {
		t.Fatalf("advise job %s: state %s (%s)", job.ID, job.State, job.Error)
	}
	art, status := d.result(t, job.ID)
	if status != http.StatusOK {
		t.Fatalf("advise job result: status %d", status)
	}
	d.drain(t)

	cliHead, cliBody, _ := strings.Cut(cli, "\n")
	artHead, artBody, _ := strings.Cut(art, "\n")
	if !strings.HasPrefix(cliHead, "pad sweep for NW (") || artHead != "pad sweep for NW" {
		t.Errorf("header lines %q and %q do not name the case study", cliHead, artHead)
	}
	if cliBody != artBody {
		t.Errorf("advise tables differ below the header\n--- ccprof -advise ---\n%s\n--- ccprofd artifact ---\n%s", cliBody, artBody)
	}
	if !strings.Contains(cliBody, "<- recommended") || !strings.Contains(cliBody, "recommended pad: ") {
		t.Errorf("advise table lacks its recommendation:\n%s", cliBody)
	}
}

// TestCCProfdHealth: liveness stays 200 across the lifecycle; readiness
// is tied to admission.
func TestCCProfdHealth(t *testing.T) {
	d := startDaemon(t, t.TempDir())
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(d.url + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	d.drain(t)
}

// TestCCProfdSIGTERMAtReadiness: a SIGTERM that lands the moment the daemon
// announces its address must still drain cleanly. The handler has to be
// installed before the listener opens; otherwise the signal's default
// action kills the daemon undrained.
func TestCCProfdSIGTERMAtReadiness(t *testing.T) {
	for i := 0; i < 20; i++ {
		d := startDaemon(t, t.TempDir())
		d.drain(t)
		if !strings.Contains(d.stderr.String(), "drained; no jobs pending") {
			t.Fatalf("run %d: no clean-drain notice; stderr:\n%s", i, d.stderr)
		}
	}
}

// TestCCProfdExitCodes pins the shared CLI convention on the daemon:
// usage errors exit 2 before any listener or file is touched; runtime
// failures (an unbindable address) exit 1.
func TestCCProfdExitCodes(t *testing.T) {
	for _, tc := range [][]string{
		{},                            // missing -data
		{"-data", "x", "-queue", "0"}, // unbounded/absurd queue
		{"-data", "x", "-workers", "0"},
		{"-data", "x", "-retries", "-1"},
		{"-data", "x", "-j", "-3"},
		{"-data", "x", "stray-arg"},
	} {
		_, stderr, exit := run(t, "ccprofd", tc...)
		if exit != 2 {
			t.Errorf("ccprofd %v: exit %d, want 2 (stderr %q)", tc, exit, stderr)
		}
		if stderr == "" {
			t.Errorf("ccprofd %v: no usage message on stderr", tc)
		}
	}
	_, stderr, exit := run(t, "ccprofd", "-data", t.TempDir(), "-addr", "256.256.256.256:1")
	if exit != 1 {
		t.Errorf("unbindable -addr: exit %d, want 1 (stderr %q)", exit, stderr)
	}
}
