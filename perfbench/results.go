package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// record is everything one run wrote down: the machine, the declared
// metrics, the named ones, the stage accounting and, for a traced run, its
// spans and per-block tallies.
type record struct {
	Machine   machine                 `json:"machine"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Problems  []string                `json:"problems,omitempty"`
	Metrics   map[string]metricOutput `json:"metrics"`
	Named     []namedValue            `json:"named,omitempty"`
	Stages    []namedValue            `json:"stages,omitempty"`
	Series    map[string][]float64    `json:"series,omitempty"`
	Spans     []span                  `json:"spans,omitempty"`
	Tallies   map[string]*tally       `json:"tallies,omitempty"`
}

// writeRecord writes the run's record under .bench_build/perfbench/results
// and returns its path.
func writeRecord(cfg config, mach machine, res *result, out map[string]metricOutput, tr *tracer) (string, error) {
	rec := record{
		Machine:   mach,
		Attempted: res.attempted,
		Failed:    res.failed,
		Problems:  res.problems,
		Metrics:   out,
		Named:     res.named,
		Stages:    res.stages,
		Series:    res.series,
	}
	if tr != nil {
		rec.Spans, rec.Tallies = tr.spans, tr.tallys
	}
	dir := filepath.Join(workDir(cfg.root), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", cfg.workload, cfg.seed, cfg.trace, time.Now().UnixNano())
	path := filepath.Join(dir, name)
	data, err := json.Marshal(rec)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// loadRecords reads every record in dir (or the single record file dir).
func loadRecords(dir string) ([]record, error) {
	paths := []string{dir}
	if st, err := os.Stat(dir); err != nil {
		return nil, err
	} else if st.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(dir, "*.json")); err != nil {
			return nil, err
		}
	}
	var out []record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no records in %s", dir)
	}
	return out, nil
}

// quartiles returns the three quartiles of xs as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// compareMain compares the untraced records of two result directories,
// metric by metric and workload by workload, against the bounds in
// BENCHMARK.json. It refuses records measured on different machines.
// Exit status: 0 no regression, 1 a regression, 2 not comparable.
func compareMain(root, arg string) int {
	oldDir, newDir, ok := strings.Cut(arg, ",")
	if !ok {
		fmt.Fprintln(os.Stderr, "perfbench: -compare takes OLD,NEW")
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	var sides [2][]record
	for i, dir := range []string{oldDir, newDir} {
		if sides[i], err = loadRecords(dir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	ref := sides[0][0].Machine
	for _, side := range sides {
		for _, r := range side {
			if why := sameMachine(ref, r.Machine); why != "" {
				fmt.Fprintf(os.Stderr, "perfbench: refusing to compare results from different machines: %s\n", why)
				return 2
			}
		}
	}
	status := 0
	fmt.Printf("%-8s %-12s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "old median", "spread", "new median", "spread", "worse", "bound", "verdict")
	for _, w := range spec.workloadNames() {
		for _, m := range spec.EndToEnd {
			var vals [2][]float64
			for i, side := range sides {
				for _, r := range side {
					if r.Machine.Workload == w && !r.Machine.Trace {
						if v, ok := r.Metrics[m.Name]; ok {
							vals[i] = append(vals[i], v.Value)
						}
					}
				}
			}
			if len(vals[0]) == 0 || len(vals[1]) == 0 {
				continue
			}
			var med, spread [2]float64
			for i := range vals {
				q := quartiles(vals[i])
				med[i] = q[1]
				spread[i] = (q[2] - q[0]) / q[1]
			}
			worse := (med[1] - med[0]) / med[0]
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				status = 1
			case max(spread[0], spread[1]) > m.Bound:
				verdict = "unresolved: spread wider than bound"
			case -worse > max(spread[0], spread[1]):
				verdict = "better, beyond both spreads"
			}
			fmt.Printf("%-8s %-12s %12.5g %6.1f%% %12.5g %6.1f%% %7.1f%% %5.0f%%  %s\n",
				w, m.Name, med[0], 100*spread[0], med[1], 100*spread[1], 100*worse, 100*m.Bound, verdict)
		}
	}
	return status
}
