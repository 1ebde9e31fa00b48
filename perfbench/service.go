package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/ccprofd"
	"repro/internal/core"
	"repro/internal/pmu"
	"repro/internal/workloads"
)

// The service workload: the real ccprofd binary with default flags (one job
// worker) serves two closed-loop clients, each on one keep-alive
// connection. A job is POST /jobs, GET /jobs/{id} every pollInterval until
// it ends, then GET /jobs/{id}/result and verification of the artifact.
const (
	pollInterval   = 5 * time.Millisecond
	serviceClients = 2
	serviceSetups  = 9 // daemon starts per run, for the set-up median
	serviceMinJobs = 100
	serviceRungs   = 20  // repetitions of each in-process service rung
	serviceWarmup  = 0.5 // seconds of unmeasured jobs before measuring
	serviceCase    = "kripke"
	jobTimeout     = 60 * time.Second
)

var serviceSpec = []byte(`{"kind":"profile","workload":"` + serviceCase + `"}`)

func runService(cfg config) (*result, *tracer, error) {
	if cfg.ccprofd == "" {
		return nil, nil, errors.New("the service workload needs -ccprofd")
	}
	res := &result{}
	n := serviceSetups
	if cfg.trace {
		n = 1
	}
	// Set-up is timed on n daemons. All but the last are only set-up
	// probes and are killed; the last serves the run and is drained. As
	// in runInproc, times are scaled by the share of the CPU the run had,
	// over the set-up and over the measured jobs.
	sm, err := startSteal()
	if err != nil {
		return nil, nil, err
	}
	var setups []float64
	var d *daemon
	for k := 0; k < n; k++ {
		var took time.Duration
		d, took, err = startDaemon(cfg, k)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
		if k < n-1 {
			d.kill()
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	setupSteal, err := sm.share()
	if err != nil {
		return nil, nil, err
	}

	// A short warm-up lets the daemon and both connections reach steady
	// state before anything is measured.
	var ops atomic.Int64
	clientsPhase(d.base, serviceWarmup, nil, &ops, res)
	var tr *tracer
	var cal, traced []jobStat
	var s1, s2 float64
	if cfg.trace {
		tr = newTracer()
		s1, s2, err = twoPhases(
			func() error { cal, _ = clientsPhase(d.base, cfg.seconds/2, nil, &ops, res); return nil },
			func() error { traced, _ = clientsPhase(d.base, cfg.seconds/2, tr, &ops, res); return nil })
		if err != nil {
			return nil, nil, err
		}
	} else {
		pid := strconv.Itoa(d.cmd.Process.Pid)
		stop := make(chan struct{})
		rssDone := make(chan rssResult, 1)
		go func() {
			rss, err := rssWindows(pid, stop)
			rssDone <- rssResult{rss, err}
		}()
		var elapsed time.Duration
		sm, err := startSteal()
		if err != nil {
			return nil, nil, err
		}
		cal, elapsed = clientsPhase(d.base, cfg.seconds, nil, &ops, res)
		close(stop)
		steal, err := sm.share()
		if err != nil {
			return nil, nil, err
		}
		rss := <-rssDone
		if rss.err != nil {
			return nil, nil, rss.err
		}
		if len(cal) < serviceMinJobs {
			res.fail(fmt.Errorf("only %d jobs finished, fewer than the %d a 90th percentile needs", len(cal), serviceMinJobs))
		}
		win := windows(cal, elapsed)
		had := 1 - steal
		res.metrics = map[string]float64{
			"work_per_s":  median(win.rates) / had,
			"op_ms_p50":   median(win.p50) * had,
			"setup_s":     median(setups) * (1 - setupSteal),
			"peak_rss_mb": median(rss.mib),
		}
		res.series = map[string][]float64{
			"window_jobs_per_s":  win.rates,
			"window_job_ms_p50":  win.p50,
			"window_job_ms_p90":  win.p90,
			"window_peak_rss_mb": rss.mib,
		}
		res.named = []namedValue{
			{"jobs_per_s", res.metrics["work_per_s"], "jobs/s"},
			{"jobs_per_s_wall", median(win.rates), "jobs/s"},
			{"job_ms_p50", res.metrics["op_ms_p50"], "ms"},
			{"job_ms_p50_wall", median(win.p50), "ms"},
			{"job_ms_p90", median(win.p90) * had, "ms"},
			{"job_ms_p90_wall", median(win.p90), "ms"},
			{"jobs", float64(len(cal)), "count"},
			{"windows", float64(len(win.rates)), "count"},
			{"polls_per_job", meanPolls(cal), "count"},
			{"poll_interval_ms", ms(pollInterval), "ms"},
			{"setup_s", res.metrics["setup_s"], "s"},
			{"setup_s_wall", median(setups), "s"},
			{"peak_rss_mb", res.metrics["peak_rss_mb"], "MiB"},
			{"steal_pct", 100 * steal, "%"},
		}
	}

	counters, err := d.counters()
	if err != nil {
		return nil, nil, err
	}
	if cfg.trace {
		if err := serviceLadder(cfg, tr); err != nil {
			return nil, nil, err
		}
		res.metrics, res.stages = serviceLayers(tr, mean(jobMS(cal))*(1-s1)/(1-s2), traced, counters)
		res.stages = append(res.stages, stealStages(s1, s2)...)
	}
	stopped = true
	res.attempted++
	if err := d.stop(); err != nil {
		res.fail(err)
	}
	return res, tr, nil
}

// serviceWindow is the length of the windows a service run is cut into:
// each holds about a hundred jobs, enough for a 90th percentile.
const serviceWindow = 2 * time.Second

// windowStats holds one value per complete window of a service run.
type windowStats struct {
	rates, p50, p90 []float64
}

// windows cuts a run's jobs into serviceWindow-long windows by completion
// time. The run's metrics are medians over windows, so a window in which
// the machine was busy with something else does not move them.
func windows(jobs []jobStat, elapsed time.Duration) windowStats {
	n := int(elapsed / serviceWindow)
	lat := make([][]float64, n)
	for _, j := range jobs {
		if w := int(j.end / serviceWindow); w < n {
			lat[w] = append(lat[w], j.ms)
		}
	}
	var ws windowStats
	for _, xs := range lat {
		if len(xs) == 0 {
			continue
		}
		ws.rates = append(ws.rates, float64(len(xs))/serviceWindow.Seconds())
		ws.p50 = append(ws.p50, quantile(xs, 0.5))
		ws.p90 = append(ws.p90, quantile(xs, 0.9))
	}
	return ws
}

type rssResult struct {
	mib []float64
	err error
}

// rssWindows reads the peak RSS of process pid over each serviceWindow
// until stop is closed.
func rssWindows(pid string, stop <-chan struct{}) ([]float64, error) {
	var out []float64
	for {
		if err := resetPeakRSS(pid); err != nil {
			return nil, err
		}
		select {
		case <-stop:
			return out, nil
		case <-time.After(serviceWindow):
		}
		rss, err := peakRSSMiB(pid)
		if err != nil {
			return nil, err
		}
		out = append(out, rss)
	}
}

// daemon is one running ccprofd child process.
type daemon struct {
	cmd  *exec.Cmd
	dir  string
	base string
	log  *daemonLog
	done chan error
}

// daemonLog collects the daemon's output and reports the address it
// announces once it serves.
type daemonLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // receives the listen address once
	sent bool
}

const servingPrefix = "serving on http://"

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.sent {
		b := l.buf.Bytes()
		if i := bytes.Index(b, []byte(servingPrefix)); i >= 0 {
			rest := b[i+len(servingPrefix):]
			if j := bytes.IndexByte(rest, ' '); j >= 0 {
				l.addr <- string(rest[:j])
				l.sent = true
			}
		}
	}
	return len(p), nil
}

func (l *daemonLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startDaemon starts ccprofd on a fresh data directory and returns once
// /readyz answers 200, with the time from spawn to that answer.
func startDaemon(cfg config, k int) (*daemon, time.Duration, error) {
	dir := filepath.Join(workDir(cfg.root), "svc", fmt.Sprintf("seed%d-pid%d-%d", cfg.seed, os.Getpid(), k))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return nil, 0, err
	}
	d := &daemon{dir: dir, log: &daemonLog{addr: make(chan string, 1)}, done: make(chan error, 1)}
	d.cmd = exec.Command(cfg.ccprofd, "-addr", "127.0.0.1:0", "-data", dir, "-seed", strconv.FormatInt(cfg.seed, 10))
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { d.done <- d.cmd.Wait() }()
	select {
	case addr := <-d.log.addr:
		d.base = "http://" + addr
	case err := <-d.done:
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("ccprofd exited before serving (%v): %s", err, d.log)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("ccprofd did not announce its address: %s", d.log)
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("ccprofd never became ready: %s", d.log)
		}
		time.Sleep(200 * time.Microsecond)
	}
	took := time.Since(start)
	hc.CloseIdleConnections()
	return d, took, nil
}

// stop sends SIGTERM and requires a clean drain: exit status 0 and no job
// left for a restart. The data directory is removed either way.
func (d *daemon) stop() error {
	defer os.RemoveAll(d.dir)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	var err error
	select {
	case err = <-d.done:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return errors.New("ccprofd did not exit within 60s of SIGTERM")
	}
	if err != nil {
		return fmt.Errorf("ccprofd exited with %v", err)
	}
	if !strings.Contains(d.log.String(), "no jobs pending") {
		return fmt.Errorf("ccprofd left jobs pending at exit: %s", lastLine(d.log.String()))
	}
	return nil
}

// kill ends the daemon on an error path.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
	os.RemoveAll(d.dir)
}

func lastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// counters reads the job counters from GET /metrics.
func (d *daemon) counters() (map[string]uint64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return snap.Counters, nil
}

// jobStat is one verified job as its client saw it.
type jobStat struct {
	ms    float64
	polls int
	end   time.Duration // completion, since the phase started
}

func jobMS(js []jobStat) []float64 {
	out := make([]float64, len(js))
	for i, j := range js {
		out[i] = j.ms
	}
	return out
}

func meanPolls(js []jobStat) float64 {
	sum := 0
	for _, j := range js {
		sum += j.polls
	}
	return float64(sum) / float64(max(len(js), 1))
}

// clientsPhase runs the closed-loop clients until seconds have passed and
// returns every verified job and the phase's length.
func clientsPhase(base string, seconds float64, tr *tracer, ops *atomic.Int64, res *result) ([]jobStat, time.Duration) {
	end := deadline(seconds)
	start := time.Now()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		jobs []jobStat
	)
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(base)
			defer cl.hc.CloseIdleConnections()
			for time.Now().Before(end) {
				st, err := cl.job(int(ops.Add(1)), tr)
				st.end = time.Since(start)
				mu.Lock()
				res.attempted++
				if err != nil {
					res.fail(err)
				} else {
					jobs = append(jobs, st)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs, time.Since(start)
}

type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	t := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t, Timeout: jobTimeout}, base: base}
}

// jobView is the part of a ccprofd job the client reads.
type jobView struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Artifact string `json:"artifact"`
	Error    string `json:"error"`
}

// call does one request and returns the status, headers and body.
func (c *client) call(method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// job submits one job, polls it to the end, fetches and verifies its
// artifact.
func (c *client) job(op int, tr *tracer) (jobStat, error) {
	start := time.Now()
	jobSpan := tr.start(op, 0, "job")
	defer tr.end(jobSpan)

	sp := tr.start(op, jobSpan, "ccprofd.submit")
	status, _, body, err := c.call(http.MethodPost, "/jobs", serviceSpec)
	tr.end(sp)
	if err != nil {
		return jobStat{}, fmt.Errorf("submit: %w", err)
	}
	if status != http.StatusAccepted {
		return jobStat{}, fmt.Errorf("submit: status %d: %s", status, body)
	}
	var job jobView
	if err := json.Unmarshal(body, &job); err != nil {
		return jobStat{}, fmt.Errorf("submit: %w", err)
	}

	sp = tr.start(op, jobSpan, "ccprofd.wait")
	polls := 0
	for job.State != "done" {
		if job.State == "failed" {
			tr.end(sp)
			return jobStat{}, fmt.Errorf("job %s failed: %s", job.ID, job.Error)
		}
		if time.Since(start) > jobTimeout {
			tr.end(sp)
			return jobStat{}, fmt.Errorf("job %s still %s after %v", job.ID, job.State, jobTimeout)
		}
		time.Sleep(pollInterval)
		polls++
		status, _, body, err = c.call(http.MethodGet, "/jobs/"+job.ID, nil)
		if err != nil || status != http.StatusOK {
			tr.end(sp)
			return jobStat{}, fmt.Errorf("polling %s: status %d, %v", job.ID, status, err)
		}
		if err := json.Unmarshal(body, &job); err != nil {
			tr.end(sp)
			return jobStat{}, fmt.Errorf("polling %s: %w", job.ID, err)
		}
	}
	tr.end(sp)

	sp = tr.start(op, jobSpan, "ccprofd.result")
	status, hdr, art, err := c.call(http.MethodGet, "/jobs/"+job.ID+"/result", nil)
	tr.end(sp)
	if err != nil || status != http.StatusOK {
		return jobStat{}, fmt.Errorf("result of %s: status %d, %v", job.ID, status, err)
	}
	sum := sha256.Sum256(art)
	got := hex.EncodeToString(sum[:])
	if got != hdr.Get("X-Artifact-Sha256") || got != job.Artifact {
		return jobStat{}, fmt.Errorf("artifact of %s hashes to %s; header says %s, job says %s",
			job.ID, got, hdr.Get("X-Artifact-Sha256"), job.Artifact)
	}
	if err := checkReport(serviceCase, false, string(art)); err != nil {
		return jobStat{}, fmt.Errorf("artifact of %s: %w", job.ID, err)
	}
	return jobStat{ms: ms(time.Since(start)), polls: polls}, nil
}

// serviceLadder runs, in this process and on the same spec, the calls a
// job's execution and persistence make: the profile execution chain, a
// journal open plus submit, and a store put and get of an artifact of the
// job's size. The daemon is idle meanwhile.
func serviceLadder(cfg config, tr *tracer) error {
	dir := filepath.Join(workDir(cfg.root), "svc", fmt.Sprintf("rungs-seed%d-pid%d", cfg.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := ccprofd.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	for r := 0; r < serviceRungs; r++ {
		op := -1 - r // distinct from the client jobs' op IDs
		root := tr.start(op, 0, "rungs")
		sp := tr.start(op, root, "ccprofd.exec")
		art, err := executeProfile(serviceCase, opSeed(cfg.seed, "service", r))
		tr.end(sp)
		if err != nil {
			return err
		}
		if err := checkReport(serviceCase, false, string(art)); err != nil {
			return err
		}

		sp = tr.start(op, root, "ccprofd.journal")
		j, _, err := ccprofd.OpenJournal(filepath.Join(dir, fmt.Sprintf("journal-%d", r)))
		if err == nil {
			err = j.Submit(&ccprofd.Job{
				ID:    fmt.Sprintf("j%06d", r),
				Seq:   uint64(r),
				Spec:  ccprofd.Spec{Kind: ccprofd.KindProfile, Workload: serviceCase},
				State: ccprofd.StateQueued,
			})
		}
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("journal rung: %w", err)
		}
		if err := j.Close(); err != nil {
			return err
		}

		sp = tr.start(op, root, "ccprofd.store_put")
		hash, err := store.Put(art)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.start(op, root, "ccprofd.store_get")
		back, err := store.Get(hash)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return err
		}
		if !bytes.Equal(back, art) {
			return errors.New("store rung: read back different bytes")
		}
	}
	return nil
}

// executeProfile is the call chain ccprofd runs for a profile job on the
// original variant: profile without wall-clock timing, analyze, and render
// the report under a one-line summary.
func executeProfile(name string, seed int64) ([]byte, error) {
	cs, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	prog := cs.Original
	prof, err := core.ProfileProgram(prog, core.ProfileOptions{
		Period: pmu.Uniform(cs.ProfilePeriod),
		Seed:   seed,
		NoTime: true,
	})
	if err != nil {
		return nil, err
	}
	an, err := core.Analyze(prof, prog.Binary, prog.Arena, core.AnalyzeOptions{})
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "profiled %s: %d refs, %d L1-miss events, %d samples (mean period %.0f)\n\n",
		prog.Name, prof.Refs, prof.Events, prof.SampleCount(), prof.PeriodMean)
	if err := core.WriteReport(&b, an); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func serviceLayers(tr *tracer, untracedMean float64, traced []jobStat, counters map[string]uint64) (map[string]float64, []namedValue) {
	submit := tr.meanMS("ccprofd.submit")
	wait := tr.meanMS("ccprofd.wait")
	result := tr.meanMS("ccprofd.result")
	exec := tr.meanMS("ccprofd.exec")
	journal := tr.meanMS("ccprofd.journal")
	put := tr.meanMS("ccprofd.store_put")
	get := tr.meanMS("ccprofd.store_get")
	jobMean := mean(jobMS(traced))
	rungs := exec + journal + put + get
	m := map[string]float64{
		"ccprofd.submit_ms":      submit,
		"ccprofd.wait_ms":        wait,
		"ccprofd.result_ms":      result,
		"ccprofd.polls":          meanPolls(traced),
		"ccprofd.exec_ms":        exec,
		"ccprofd.journal_ms":     journal,
		"ccprofd.store_put_ms":   put,
		"ccprofd.store_get_ms":   get,
		"ccprofd.residual_ms":    jobMean - rungs,
		"ccprofd.jobs_completed": float64(counters["ccprofd.jobs_completed"]),
		"ccprofd.jobs_failed":    float64(counters["ccprofd.jobs_failed"]),
		"ccprofd.jobs_rejected":  float64(counters["ccprofd.jobs_rejected"]),
		"trace.overhead_x":       jobMean / untracedMean,
	}
	stages := []namedValue{
		{"client: ccprofd.submit", submit, "ms"},
		{"client: ccprofd.wait", wait, "ms"},
		{"client: ccprofd.result", result, "ms"},
		{"client: polls per job", meanPolls(traced), "count"},
		{"ccprofd.exec", exec, "ms"},
		{"ccprofd.journal", journal, "ms"},
		{"ccprofd.store_put", put, "ms"},
		{"ccprofd.store_get", get, "ms"},
		{"sum of rungs", rungs, "ms"},
		{"traced job (mean)", jobMean, "ms"},
		{"ccprofd.residual", jobMean - rungs, "ms"},
		{"untraced job (mean)", untracedMean, "ms"},
		{"tracing overhead", jobMean/untracedMean - 1, "ratio"},
	}
	return m, stages
}
