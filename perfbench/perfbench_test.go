package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// countMetrics are the per-layer counts that must repeat exactly for a
// fixed seed.
var countMetrics = map[string][]string{
	"profile": {"workloads.refs", "cache.l1_misses", "pmu.events", "pmu.samples"},
	"analyze": {"core.samples", "core.loops", "core.attributed_ratio"},
	"advise":  {"advisor.sims", "advisor.pruned_analytic", "advisor.pruned_static", "advisor.pruned_ratio"},
}

// tracedPass runs one traced pass of an in-process workload, as a traced
// run does, and returns its per-layer metrics.
func tracedPass(t *testing.T, name string, seed int64) map[string]float64 {
	t.Helper()
	w, err := inprocSpecs[name].build(seed)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	res := &result{}
	if _, err := measure(w, 0, tr, res); err != nil {
		t.Fatal(err)
	}
	if res.failed > 0 {
		t.Fatalf("%d of %d ops failed: %v", res.failed, res.attempted, res.problems)
	}
	m, _ := w.layers(tr, 1, 1)
	return m
}

func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three traced passes twice")
	}
	for name, counts := range countMetrics {
		t.Run(name, func(t *testing.T) {
			pick := func(m map[string]float64) map[string]float64 {
				out := map[string]float64{}
				for _, c := range counts {
					// The static tier may legitimately prune nothing
					// once the analytic tier has run.
					if m[c] == 0 && c != "advisor.pruned_static" {
						t.Errorf("%s is 0", c)
					}
					out[c] = m[c]
				}
				return out
			}
			first := pick(tracedPass(t, name, 7))
			second := pick(tracedPass(t, name, 7))
			if !reflect.DeepEqual(first, second) {
				t.Errorf("counts differ between two traced passes with seed 7:\n%v\n%v", first, second)
			}
		})
	}
}

// Every declared metric must be one some workload measures, and every
// measured metric must be declared.
func TestDeclaredMetricsAreMeasured(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	tr := newTracer()
	for _, w := range []passWorkload{&profileWL{}, &analyzeWL{saved: make([]savedProfile, 1)}, &adviseWL{}} {
		m, _ := w.layers(tr, 1, 1)
		for name := range m {
			measured[name] = true
		}
	}
	m, _ := serviceLayers(tr, 1, nil, nil)
	for name := range m {
		measured[name] = true
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range spec.PerLayer {
		if !strings.Contains(string(readme), "`"+d.Name+"`") {
			t.Errorf("README.md does not say what %s should move", d.Name)
		}
		if !measured[d.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", d.Name)
		}
		delete(measured, d.Name)
	}
	for name := range measured {
		t.Errorf("metric %s is measured but not declared", name)
	}
	for _, w := range spec.workloadNames() {
		if workloadRunners[w] == nil {
			t.Errorf("workload %s has no runner", w)
		}
	}
}

// The service workload's poll interval is part of its definition, so
// BENCHMARK.json must state it.
func TestBenchmarkJSONRecordsPollInterval(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("every %d ms", pollInterval/time.Millisecond)
	for _, w := range spec.Workloads {
		if w.Name == "service" {
			if !strings.Contains(w.Why, want) {
				t.Errorf("service why %q does not say %q", w.Why, want)
			}
			return
		}
	}
	t.Error("BENCHMARK.json has no service workload")
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartiles(xs), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

// The service workload end to end on a short run: the daemon starts,
// serves both clients, drains cleanly, and every job verifies.
func TestServiceShortRun(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ccprofd")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/ccprofd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ccprofd: %v\n%s", err, out)
	}
	for _, traced := range []bool{false, true} {
		cfg := config{workload: "service", seed: 3, seconds: 2, trace: traced, root: t.TempDir(), ccprofd: bin}
		res, _, err := runService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.problems {
			// A short run may finish too few jobs for a 90th percentile.
			if !strings.Contains(p, "fewer than") {
				t.Errorf("traced=%v: %s", traced, p)
			}
		}
		if res.attempted == 0 {
			t.Errorf("traced=%v: no jobs attempted", traced)
		}
		for name, v := range res.metrics {
			if v < 0 && !strings.HasSuffix(name, "residual_ms") {
				t.Errorf("traced=%v: %s = %v", traced, name, v)
			}
		}
	}
}
