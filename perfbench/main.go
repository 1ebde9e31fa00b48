// Command perfbench measures the surfaces users of this repository touch —
// `ccprof <workload>`, `ccprof -analyze`, `ccprof -advise` and a ccprofd job
// — end to end, and layer by layer in a separate traced run.
//
// It is normally started through run.py, which builds it and the ccprofd
// daemon from the checkout's sources:
//
//	python3 perfbench/run.py --workload profile --seed 1 --seconds 20 --trace 0
//
// An untraced run (-trace 0) prints the end-to-end metrics BENCHMARK.json
// declares; a traced run (-trace 1) prints its per-layer metrics. Layers a
// workload never calls report 0. Human-readable lines (the machine record,
// the named metrics of the workload, the stage accounting) come first; the
// last line of standard output is the JSON result.
//
// With -compare OLD,NEW it instead compares two result directories written
// by earlier runs (see results.go).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one run's settings, from flags.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root: BENCHMARK.json, .bench_build
	ccprofd  string // daemon binary for the service workload
	probe    bool   // child mode: set up once, print "ready", exit
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		cfg     config
		traceN  int
		compare string
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: profile, analyze, advise or service")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long one run measures")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run: print per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.root, "root", ".", "root of the source checkout")
	flag.StringVar(&cfg.ccprofd, "ccprofd", "", "path of the ccprofd binary (service workload)")
	flag.BoolVar(&cfg.probe, "setup-probe", false, "set the workload up once, print \"ready\" and exit (set-up timing)")
	flag.StringVar(&compare, "compare", "", "OLD,NEW: compare two result directories instead of running")
	flag.Parse()
	if compare != "" {
		return compareMain(cfg.root, compare)
	}
	if traceN != 0 && traceN != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, not %d\n", traceN)
		return 2
	}
	cfg.trace = traceN == 1
	if cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	if cfg.probe {
		if err := setupProbe(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: set-up probe: %v\n", err)
			return 1
		}
		return 0
	}
	if err := runBench(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// result is what one run measured.
type result struct {
	attempted int
	failed    int
	problems  []string // the first few failed checks, for the log

	// metrics holds the declared metrics this workload measured:
	// end-to-end ones on untraced runs, per-layer ones on traced runs.
	metrics map[string]float64
	// named lists the workload's metrics under the names and units the
	// workload's users know them by (refs_per_s, job_ms_p50, ...).
	named []namedValue
	// stages is the traced run's stage accounting, printed as is.
	stages []namedValue
	// series keeps the per-pass or per-window values behind the medians,
	// for the record.
	series map[string][]float64
}

type namedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) fail(err error) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, err.Error())
	}
}

// workloadRunners maps each workload to its runner.
var workloadRunners = map[string]func(cfg config) (*result, *tracer, error){
	"profile": runInproc,
	"analyze": runInproc,
	"advise":  runInproc,
	"service": runService,
}

func runBench(cfg config) error {
	spec, err := loadSpec(cfg.root)
	if err != nil {
		return err
	}
	if !spec.hasWorkload(cfg.workload) {
		return fmt.Errorf("unknown workload %q (BENCHMARK.json declares %v)", cfg.workload, spec.workloadNames())
	}
	runner, ok := workloadRunners[cfg.workload]
	if !ok {
		return fmt.Errorf("workload %q has no runner", cfg.workload)
	}
	mach, err := readMachine(cfg)
	if err != nil {
		return err
	}
	machLine, err := json.Marshal(mach)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("machine %s\n", machLine)

	res, tr, err := runner(cfg)
	if err != nil {
		return err
	}
	declared := spec.EndToEnd
	if cfg.trace {
		declared = spec.PerLayer
	}
	out, err := declaredMetrics(declared, res.metrics, !cfg.trace)
	if err != nil {
		return err
	}

	for _, n := range res.named {
		fmt.Printf("metric %-26s %14.6g %s\n", n.Name, n.Value, n.Unit)
	}
	ratio := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Printf("metric %-26s %14.6g ratio (%d of %d ops)\n", "failed_ratio", ratio, res.failed, res.attempted)
	if len(res.stages) > 0 {
		fmt.Println("stage accounting (ms per op unless noted):")
		for _, s := range res.stages {
			fmt.Printf("  %-28s %12.4f %s\n", s.Name, s.Value, s.Unit)
		}
	}
	for _, p := range res.problems {
		fmt.Printf("FAILED CHECK: %s\n", p)
	}
	path, err := writeRecord(cfg, mach, res, out, tr)
	if err != nil {
		return err
	}
	fmt.Printf("record %s\n", path)

	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]metricOutput `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declaredMetrics renders exactly the declared metrics. End-to-end metrics
// must all be measured and non-zero; a per-layer metric the workload never
// touches reads 0. A measured metric nobody declared is a bug.
func declaredMetrics(declared []metricDef, got map[string]float64, endToEnd bool) (map[string]metricOutput, error) {
	out := make(map[string]metricOutput, len(declared))
	known := map[string]bool{}
	for _, d := range declared {
		known[d.Name] = true
		v, ok := got[d.Name]
		if endToEnd && (!ok || v == 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		out[d.Name] = metricOutput{Value: v, Unit: d.Unit}
	}
	var unknown []string
	for name := range got {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics %v are measured but not declared in BENCHMARK.json", unknown)
	}
	return out, nil
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must print.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New("BENCHMARK.json declares no metrics")
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (s *benchSpec) workloadNames() []string {
	var out []string
	for _, w := range s.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// deadline returns the end of a measurement phase of the given length.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
