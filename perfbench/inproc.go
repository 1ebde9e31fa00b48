package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// passWorkload is a workload run in this process by one closed-loop
// client. Its ops cycle through a fixed list of op kinds; a pass runs each
// kind once, so every pass does the same work and passes are comparable.
type passWorkload interface {
	// kinds is the number of op kinds in a pass.
	kinds() int
	// op runs op i, of kind i % kinds(). It returns the op's end-to-end
	// time, the units of work it did, and an error when it failed or its
	// output was wrong. With a tracer it also records the op's spans and
	// runs the layer ladder on the same op, outside the returned time.
	op(i int, tr *tracer) (time.Duration, float64, error)
	// layers turns a traced phase into per-layer metrics and the stage
	// accounting, given the mean untraced and traced op times in ms.
	layers(tr *tracer, untracedMS, tracedMS float64) (map[string]float64, []namedValue)
}

// inprocSpec describes one in-process workload.
type inprocSpec struct {
	// build sets the workload up: everything between process start and
	// the first timed op.
	build func(seed int64) (passWorkload, error)
	// setups is how many times a run measures set-up, each in a fresh
	// process, to report the median. The run's own set-up is not timed:
	// it starts after the probes.
	setups int
	// workName and workUnit name work_per_s among the named metrics, as
	// users of the workload know it (refs_per_s, ...).
	workName, workUnit string
}

var inprocSpecs = map[string]inprocSpec{
	"profile": {build: newProfileWL, setups: 9, workName: "refs_per_s", workUnit: "refs/s"},
	"analyze": {build: newAnalyzeWL, setups: 3, workName: "samples_per_s", workUnit: "samples/s"},
	"advise":  {build: newAdviseWL, setups: 9, workName: "pads_per_s", workUnit: "pads/s"},
}

// phase is what one measurement phase saw.
type phase struct {
	perKind   [][]float64 // op times in ms, by op kind
	hadKind   [][]float64 // the same, scaled by the pass's share of the CPU
	kindRSS   [][]float64 // peak RSS in MiB during each op, by op kind
	opMS      []float64   // every op time in ms
	passWork  float64     // units of work in one pass
	passRates []float64   // units of work per second, one per pass
	passSteal []float64   // steal share during each pass
}

// measure runs whole passes of w until seconds have passed (at least one).
func measure(w passWorkload, seconds float64, tr *tracer, res *result) (phase, error) {
	end := deadline(seconds)
	n := w.kinds()
	ph := phase{perKind: make([][]float64, n), hadKind: make([][]float64, n), kindRSS: make([][]float64, n)}
	passMS := make([]float64, n)
	for p := 0; p == 0 || time.Now().Before(end); p++ {
		sm, err := startSteal()
		if err != nil {
			return ph, err
		}
		var passTime time.Duration
		var work float64
		for k := 0; k < n; k++ {
			if err := resetPeakRSS("self"); err != nil {
				return ph, err
			}
			d, units, err := w.op(p*n+k, tr)
			res.attempted++
			if err != nil {
				res.fail(err)
			}
			rss, err := peakRSSMiB("self")
			if err != nil {
				return ph, err
			}
			passMS[k] = ms(d)
			ph.perKind[k] = append(ph.perKind[k], ms(d))
			ph.kindRSS[k] = append(ph.kindRSS[k], rss)
			ph.opMS = append(ph.opMS, ms(d))
			passTime += d
			work += units
		}
		steal, err := sm.share()
		if err != nil {
			return ph, err
		}
		for k, t := range passMS {
			ph.hadKind[k] = append(ph.hadKind[k], t*(1-steal))
		}
		ph.passWork = work
		ph.passRates = append(ph.passRates, work/passTime.Seconds())
		ph.passSteal = append(ph.passSteal, steal)
	}
	return ph, nil
}

// peakRSS is the largest over op kinds of the kind's median peak RSS: the
// peak of a typical pass. Which ops overlap with a collection varies from
// pass to pass, so a single whole-run peak would not repeat.
func (ph phase) peakRSS() float64 {
	peak := 0.0
	for _, xs := range ph.kindRSS {
		peak = max(peak, median(xs))
	}
	return peak
}

// workRate is the work of one pass divided by the sum over op kinds of
// each kind's median op time (perKind or hadKind): the throughput of a
// pass in which every op takes its typical time. The machine's speed
// wanders by 10% from one second to the next; a median per kind, over
// every pass, shrugs that off better than the median of whole-pass rates.
func (ph phase) workRate(times [][]float64) float64 {
	total := 0.0
	for _, xs := range times {
		total += median(xs)
	}
	return ph.passWork / (total / 1e3)
}

// opMedian is the geometric mean over op kinds of each kind's median op
// time: the time of a typical op. Op sizes differ up to 100x between kinds,
// so a median of the raw mix would land on whichever kind sits at the
// boundary; this weighs every kind alike.
func opMedian(times [][]float64) float64 {
	medians := make([]float64, len(times))
	for k, xs := range times {
		medians[k] = median(xs)
	}
	return geomean(medians)
}

func runInproc(cfg config) (*result, *tracer, error) {
	spec := inprocSpecs[cfg.workload]
	res := &result{}
	if cfg.trace {
		w, err := spec.build(cfg.seed)
		if err != nil {
			return nil, nil, err
		}
		// One pass fills caches and pools and finishes lazy set-up; then
		// half the time runs untraced, as the reference for the tracing
		// overhead and the unaccounted time.
		if _, err := measure(w, 0, nil, res); err != nil {
			return nil, nil, err
		}
		var cal, traced phase
		tr := newTracer()
		s1, s2, err := twoPhases(
			func() (err error) { cal, err = measure(w, cfg.seconds/2, nil, res); return err },
			func() (err error) { traced, err = measure(w, cfg.seconds/2, tr, res); return err })
		if err != nil {
			return nil, nil, err
		}
		res.metrics, res.stages = w.layers(tr, mean(cal.opMS)*(1-s1)/(1-s2), mean(traced.opMS))
		res.stages = append(res.stages, stealStages(s1, s2)...)
		return res, tr, nil
	}

	// Steal, the share of busy CPU time the hypervisor gave to other
	// guests, ranged from 0 to over 30% between runs on a shared host.
	// Times are scaled by the share of the CPU the run actually had: op
	// times pass by pass, set-up times over the set-up probes.
	sm, err := startSteal()
	if err != nil {
		return nil, nil, err
	}
	setups, err := childSetups(cfg, spec.setups)
	if err != nil {
		return nil, nil, err
	}
	setupSteal, err := sm.share()
	if err != nil {
		return nil, nil, err
	}
	w, err := spec.build(cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	ph, err := measure(w, cfg.seconds, nil, res)
	if err != nil {
		return nil, nil, err
	}
	res.metrics = map[string]float64{
		"work_per_s":  ph.workRate(ph.hadKind),
		"op_ms_p50":   opMedian(ph.hadKind),
		"setup_s":     median(setups) * (1 - setupSteal),
		"peak_rss_mb": ph.peakRSS(),
	}
	res.series = map[string][]float64{"pass_work_per_s": ph.passRates, "pass_steal": ph.passSteal}
	res.named = []namedValue{
		{spec.workName, res.metrics["work_per_s"], spec.workUnit},
		{spec.workName + "_wall", ph.workRate(ph.perKind), spec.workUnit},
		{"op_ms_p50", res.metrics["op_ms_p50"], "ms"},
		{"op_ms_p50_wall", opMedian(ph.perKind), "ms"},
		{"setup_s", res.metrics["setup_s"], "s"},
		{"setup_s_wall", median(setups), "s"},
		{"peak_rss_mb", res.metrics["peak_rss_mb"], "MiB"},
		{"steal_pct", 100 * mean(ph.passSteal), "%"},
		{"passes", float64(len(ph.passRates)), "count"},
	}
	return res, nil, nil
}

// twoPhases runs the untraced reference phase and then the traced phase,
// and returns the steal share during each. Span times are left as
// measured; the reference is rescaled to the traced phase's share of the
// CPU before the two are compared.
func twoPhases(untraced, traced func() error) (float64, float64, error) {
	var shares [2]float64
	for i, run := range []func() error{untraced, traced} {
		sm, err := startSteal()
		if err != nil {
			return 0, 0, err
		}
		if err := run(); err != nil {
			return 0, 0, err
		}
		if shares[i], err = sm.share(); err != nil {
			return 0, 0, err
		}
	}
	return shares[0], shares[1], nil
}

func stealStages(s1, s2 float64) []namedValue {
	return []namedValue{
		{"steal, untraced reference", 100 * s1, "%"},
		{"steal, traced phase", 100 * s2, "%"},
	}
}

// setupProbe is the child side of childSetups.
func setupProbe(cfg config) error {
	spec, ok := inprocSpecs[cfg.workload]
	if !ok {
		return fmt.Errorf("workload %q has no in-process set-up", cfg.workload)
	}
	if _, err := spec.build(cfg.seed); err != nil {
		return err
	}
	fmt.Println("ready")
	return nil
}

// childSetups measures the workload's set-up n times, each in a fresh
// process from spawn to its "ready" line, so one-time initialisation is
// paid every time, as it is by every ccprof invocation.
func childSetups(cfg config, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup-probe", "-workload", cfg.workload,
			"-seed", strconv.FormatInt(cfg.seed, 10), "-root", cfg.root)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, readErr := bufio.NewReader(stdout).ReadString('\n')
		took := time.Since(start)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		if readErr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up probe printed %q", line)
		}
		out = append(out, took.Seconds())
	}
	return out, nil
}
