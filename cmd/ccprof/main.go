// Command ccprof profiles a built-in workload with the simulated PMU and
// prints the conflict-miss report — the CLI equivalent of the paper's
// ccProf_run_and_analyze.sh workflow.
//
// Usage:
//
//	ccprof -list
//	ccprof [-period N] [-threshold T] [-variant original|optimized]
//	       [-profile-out FILE] <workload>
//	ccprof -analyze FILE <workload>     # offline analysis of a saved profile
//
// Examples:
//
//	ccprof adi                    # profile PolyBench ADI, report conflicts
//	ccprof -variant optimized adi # confirm padding removed the conflicts
//	ccprof -period 31 himeno      # short conflict periods need fast sampling
//	ccprof -static adi            # static affine verdict next to the dynamic one
//	ccprof -stream -threads 8 nw  # fused online pipeline, bounded memory, same report
//	ccprof -analytic adi          # closed-form tier-0 verdict, no replay at all
//	ccprof -advise -j 8 nw        # parallel pad sweep; output identical at any -j
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/faultinj"
	"repro/internal/pmu"
	"repro/internal/report"
	"repro/internal/vmem"
)

func main() {
	var (
		list        = flag.Bool("list", false, "list available workloads and exit")
		period      = flag.Uint64("period", 0, "mean sampling period (0 = the workload's recommended period)")
		threshold   = flag.Int("threshold", ccprof.RCDThreshold, "short-RCD threshold T")
		variant     = flag.String("variant", "original", "workload variant: original or optimized")
		threads     = flag.Int("threads", 1, "threads to profile")
		stream      = flag.Bool("stream", false, "fused streaming mode: analyze samples online, buffer nothing (bounded memory)")
		seed        = flag.Int64("seed", 1, "sampling RNG seed")
		profileOut  = flag.String("profile-out", "", "also write the raw profile to this file")
		analyzeIn   = flag.String("analyze", "", "skip profiling; analyze this saved profile file")
		jsonOut     = flag.Bool("json", false, "emit the analysis as JSON instead of text")
		compare     = flag.Bool("compare", false, "profile both variants and compare verdicts")
		static      = flag.Bool("static", false, "also print the static affine conflict analysis (no execution)")
		analyticF   = flag.Bool("analytic", false, "also print the closed-form analytic conflict model (no execution, no enumeration)")
		l2          = flag.Bool("l2", false, "physically-indexed L2 profiling (the footnote-1 extension)")
		pagePolicy  = flag.String("page-policy", "identity", "L2 mode: identity, sequential, or random frame allocation")
		advise      = flag.Bool("advise", false, "run the pad advisor sweep for the workload and exit")
		jobs        = flag.Int("j", 0, "sweep-executor workers for -advise and library sweeps (0 = GOMAXPROCS; results are identical at any value)")
		faultDrop   = flag.Float64("fault-drop", 0, "inject deterministic sample drops at this rate in [0,1] (robustness testing)")
		faultSeed   = flag.Int64("fault-seed", 23, "root seed of the injected fault plan")
		obsOut      = flag.Bool("obs", false, "print the run's obs snapshot JSON to stderr on exit")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ccprof [flags] <workload>\nworkloads: %v\nflags:\n", ccprof.WorkloadNames())
		flag.PrintDefaults()
	}
	flag.Parse()

	if *metricsAddr != "" {
		addr, shutdown, err := ccprof.ServeMetrics(*metricsAddr)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "ccprof: metrics on http://%s/metrics (pprof on /debug/pprof)\n", addr)
	}
	if *obsOut {
		defer func() {
			fmt.Fprintln(os.Stderr, "--- obs snapshot ---")
			if err := ccprof.Metrics().Snapshot().WriteJSON(os.Stderr); err != nil {
				fatal(err)
			}
			fmt.Fprintln(os.Stderr)
		}()
	}

	if *list {
		for _, n := range ccprof.WorkloadNames() {
			cs, err := ccprof.Workload(n)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-16s %s\n", n, cs.Desc)
		}
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *jobs < 0 {
		usageError(fmt.Sprintf("invalid -j %d: worker count cannot be negative", *jobs))
	}
	if *threads > core.MaxThreads {
		usageError(fmt.Sprintf("invalid -threads %d: at most %d", *threads, core.MaxThreads))
	}
	var faults *faultinj.Plan
	if *faultDrop != 0 {
		faults = &faultinj.Plan{Seed: *faultSeed, DropRate: *faultDrop}
		if err := faults.Validate(); err != nil {
			usageError(err.Error())
		}
	}

	ccprof.SetParallelism(*jobs)

	cs, err := ccprof.Workload(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	if *advise {
		if err := advisePad(cs); err != nil {
			fatal(err)
		}
		return
	}

	if *static || *analyticF {
		progs := []*ccprof.Program{cs.Original}
		if *compare {
			progs = append(progs, cs.Optimized)
		} else if *variant == "optimized" {
			progs[0] = cs.Optimized
		}
		for _, p := range progs {
			if *analyticF {
				if err := printAnalytic(p); err != nil {
					fatal(err)
				}
			}
			if *static {
				if err := printStatic(p); err != nil {
					fatal(err)
				}
			}
		}
	}

	if *compare {
		if err := compareVariants(cs, *period, *threshold, *seed, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}

	prog := cs.Original
	if *l2 {
		if *variant == "optimized" {
			prog = cs.Optimized
		}
		if err := profileL2(prog, cs, *period, *seed, *pagePolicy, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}
	if *variant == "optimized" {
		prog = cs.Optimized
	} else if *variant != "original" {
		fatal(fmt.Errorf("unknown variant %q", *variant))
	}

	var prof *ccprof.Profile
	var an *ccprof.Analysis
	if *stream {
		if *analyzeIn != "" {
			usageError("-stream profiles live; it cannot analyze a saved profile (-analyze)")
		}
		if *profileOut != "" {
			usageError("-stream buffers no samples, so there is no profile to save (-profile-out)")
		}
		p := *period
		if p == 0 {
			p = cs.ProfilePeriod
		}
		prof, an, err = ccprof.ProfileStream(prog, ccprof.ProfileOptions{
			Period:  pmu.Uniform(p),
			Seed:    *seed,
			Threads: *threads,
			Faults:  faults,
		}, ccprof.AnalyzeOptions{Threshold: *threshold})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("streamed %s: %d refs, %d L1-miss events, %d samples analyzed online (mean period %.0f), nothing buffered\n",
			prog.Name, prof.Refs, prof.Events, prof.SampleCount(), prof.PeriodMean)
		if prof.Degraded() {
			note := report.DegradedNote{
				SamplesDropped: prof.FaultDropped + prof.FaultTruncated,
				SamplesAltered: prof.FaultCorrupted,
			}
			if err := note.Write(os.Stdout); err != nil {
				fatal(err)
			}
		}
		fmt.Println()
	} else if *analyzeIn != "" {
		f, err := os.Open(*analyzeIn)
		if err != nil {
			fatal(err)
		}
		prof, err = core.ReadProfile(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		// The program's binary and arena attribute the samples, so they
		// must be the ones the profile was recorded from.
		if prof.Workload != prog.Name {
			fatal(fmt.Errorf("%s is a profile of %s, but the workload argument and -variant select %s",
				*analyzeIn, prof.Workload, prog.Name))
		}
	} else {
		p := *period
		if p == 0 {
			p = cs.ProfilePeriod
		}
		prof, err = ccprof.ProfileProgram(prog, ccprof.ProfileOptions{
			Period:  pmu.Uniform(p),
			Seed:    *seed,
			Threads: *threads,
			Faults:  faults,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("profiled %s: %d refs, %d L1-miss events, %d samples (mean period %.0f), measured overhead %.2fx\n",
			prog.Name, prof.Refs, prof.Events, prof.SampleCount(), prof.PeriodMean, prof.MeasuredOverhead())
		if prof.Degraded() {
			note := report.DegradedNote{
				SamplesDropped: prof.FaultDropped + prof.FaultTruncated,
				SamplesAltered: prof.FaultCorrupted,
			}
			if err := note.Write(os.Stdout); err != nil {
				fatal(err)
			}
		}
		fmt.Println()
	}

	if *profileOut != "" {
		f, err := os.Create(*profileOut)
		if err != nil {
			fatal(err)
		}
		if _, err := prof.WriteTo(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote profile to %s\n\n", *profileOut)
	}

	if an == nil {
		an, err = ccprof.Analyze(prof, prog.Binary, prog.Arena, ccprof.AnalyzeOptions{Threshold: *threshold})
		if err != nil {
			fatal(err)
		}
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, an); err != nil {
			fatal(err)
		}
		return
	}
	if err := ccprof.WriteReport(os.Stdout, an); err != nil {
		fatal(err)
	}
}

// advisePad runs the advisor's tiered pad sweep for a case study: the
// analytic and static tiers rule candidates out first, the survivors are
// built and simulated on the parallel sweep executor (-j), and the
// cheapest pad that removes the conflict signature is recommended.
func advisePad(cs *ccprof.CaseStudy) error {
	if cs.PadBuilder == nil {
		return fmt.Errorf("%s has no pad builder (its fix is not a row pad)", cs.Name)
	}
	res, err := ccprof.RecommendPad(cs.PadBuilder, advisor.Options{
		Tiers: ccprof.Cascade(),
		Spec:  cs.SpecBuilder(),
	})
	if err != nil {
		return err
	}
	fmt.Printf("pad sweep for %s (%d workers)\n\n", cs.Name, ccprof.Parallelism())
	fmt.Printf("%-8s  %-10s  %-10s  %-12s  %-6s\n", "pad", "L1 misses", "L2 misses", "cycles", "cf")
	for _, c := range res.Candidates {
		marker := ""
		if c.Pad == res.Best.Pad {
			marker = "  <- recommended"
		}
		fmt.Printf("%-8d  %-10d  %-10d  %-12d  %-6.1f%s\n",
			c.Pad, c.Misses, c.L2Misses, c.Cycles, 100*c.CF, marker)
	}
	if len(res.Pruned) > 0 {
		fmt.Printf("\nstatically pruned (no simulation): %v\n", res.Pruned)
		if len(res.PrunedAnalytic) > 0 {
			fmt.Printf("  by the analytic tier: %v\n", res.PrunedAnalytic)
		}
		if len(res.PrunedStatic) > 0 {
			fmt.Printf("  by the static tier:   %v\n", res.PrunedStatic)
		}
	}
	fmt.Printf("\nrecommended pad: %d bytes (%.1f%% cycle reduction over pad 0)\n",
		res.Best.Pad, 100*res.Improvement())
	return nil
}

// compareVariants profiles both builds of a case study and reports the
// before/after verdicts, cf values, and per-loop movement — the Figure 9
// view for one application.
func compareVariants(cs *ccprof.CaseStudy, period uint64, threshold int, seed int64, jsonOut bool) error {
	if period == 0 {
		period = cs.ProfilePeriod
	}
	analyze := func(p *ccprof.Program) (*ccprof.Analysis, error) {
		return ccprof.ProfileAndAnalyze(p,
			ccprof.ProfileOptions{Period: pmu.Uniform(period), Seed: seed, NoTime: true},
			ccprof.AnalyzeOptions{Threshold: threshold})
	}
	orig, err := analyze(cs.Original)
	if err != nil {
		return err
	}
	opt, err := analyze(cs.Optimized)
	if err != nil {
		return err
	}
	if jsonOut {
		return writeJSON(os.Stdout, map[string]*ccprof.Analysis{
			"original": orig, "optimized": opt,
		})
	}
	fmt.Printf("%s — original vs optimized (mean period %d)\n\n", cs.Name, period)
	fmt.Printf("%-10s  %-8s  %-8s  %s\n", "variant", "samples", "cf", "verdict")
	for _, v := range []struct {
		name string
		an   *ccprof.Analysis
	}{{"original", orig}, {"optimized", opt}} {
		verdict := "clean"
		if v.an.Conflict {
			verdict = "CONFLICT"
		}
		fmt.Printf("%-10s  %-8d  %-8.1f  %s\n", v.name, v.an.TotalSamples, 100*v.an.CF, verdict)
	}
	if orig.CF > 0 {
		fmt.Printf("\nshort-RCD contribution reduced by %.1f%%\n", 100*(1-opt.CF/orig.CF))
	}
	return nil
}

// profileL2 runs the physically-indexed L2 extension and prints its report.
func profileL2(prog *ccprof.Program, cs *ccprof.CaseStudy, period uint64, seed int64, policy string, jsonOut bool) error {
	var pol vmem.Policy
	switch policy {
	case "identity":
		pol = vmem.Identity
	case "sequential":
		pol = vmem.Sequential
	case "random":
		pol = vmem.Random
	default:
		return fmt.Errorf("unknown page policy %q", policy)
	}
	if period == 0 {
		period = cs.ProfilePeriod
	}
	an, err := ccprof.ProfileL2(prog, core.L2ProfileOptions{
		Period: pmu.Uniform(period),
		Seed:   seed,
		Policy: pol,
	})
	if err != nil {
		return err
	}
	if jsonOut {
		return writeJSON(os.Stdout, an)
	}
	verdict := "no significant L2 conflict misses"
	if an.Conflict() {
		verdict = "L2 CONFLICT MISSES DETECTED"
	}
	fmt.Printf("L2 profile of %s (page policy %s)\n", an.Workload, an.Policy)
	fmt.Printf("  samples: %d of %d L2-miss events\n", an.Samples, an.Events)
	fmt.Printf("  physical sets used: %d   cf(T=%d): %.1f%%   verdict: %s\n",
		an.SetsUsed, an.Threshold, 100*an.CF, verdict)
	if top := an.TopData(); len(top) > 0 {
		fmt.Printf("  top data structures: ")
		for i, name := range top {
			if i > 2 {
				break
			}
			if i > 0 {
				fmt.Printf(", ")
			}
			fmt.Printf("%s (%d)", name, an.Data[name])
		}
		fmt.Println()
	}
	return nil
}

// printStatic runs the static affine analyzer on the workload's declared
// access spec and prints its report ahead of the dynamic one, so the two
// verdicts can be compared side by side.
func printStatic(prog *ccprof.Program) error {
	if prog.Spec == nil {
		fmt.Printf("static analysis: %s declares no access spec (data-dependent kernel)\n\n", prog.Name)
		return nil
	}
	rep, err := ccprof.AnalyzeStatic(prog.Spec, ccprof.L1Default(), ccprof.StaticOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("static analysis of %s (no execution):\n", prog.Name)
	if err := rep.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// printAnalytic runs the closed-form tier-0 conflict model on the
// workload's declared access spec and prints its report: predicted set
// demand, contribution factor, and verdict from pure arithmetic.
func printAnalytic(prog *ccprof.Program) error {
	if prog.Spec == nil {
		fmt.Printf("analytic model: %s declares no access spec (data-dependent kernel)\n\n", prog.Name)
		return nil
	}
	rep, err := ccprof.AnalyzeAnalytic(prog.Spec, ccprof.L1Default(), ccprof.AnalyticOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("analytic model of %s (no execution, no enumeration):\n", prog.Name)
	if err := rep.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "ccprof:", msg)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccprof:", err)
	os.Exit(1)
}
