package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/parsim"
	"repro/internal/pmu"
	"repro/internal/workloads"
)

// streamingDiffCase is one workload of the differential-equivalence
// corpus. fresh constructs a new Program per profiling run: several Rodinia
// kernels are data-dependent and advance internal state across runs of the
// same instance, so comparing pipelines requires comparing fresh builds.
type streamingDiffCase struct {
	name   string
	period uint64
	fresh  func() *workloads.Program
}

// streamingDiffCases enumerates the corpus: all six paper case studies at
// Quick scale plus a Rodinia subset (NW itself is RodiniaSuite[0], covered
// by its case study).
func streamingDiffCases() []streamingDiffCase {
	var cases []streamingDiffCase
	for i, cs := range caseStudies(Quick) {
		i := i
		cases = append(cases, streamingDiffCase{
			name:   cs.Name,
			period: cs.ProfilePeriod,
			fresh:  func() *workloads.Program { return caseStudies(Quick)[i].Original },
		})
	}
	for _, j := range []int{1, 2, 3, 4} {
		j := j
		suite := workloads.RodiniaSuite()
		cases = append(cases, streamingDiffCase{
			name:   suite[j].Name,
			period: Fig7Period,
			fresh:  func() *workloads.Program { return workloads.RodiniaSuite()[j] },
		})
	}
	return cases
}

// TestStreamingDifferentialEquivalence is the streaming mode's ground
// truth: for every case study and a Rodinia subset, the fused online
// pipeline must produce an Analysis — classifier verdict, contribution
// factor, RCD histogram, every attribution row — byte-identical to the
// buffered two-phase pipeline, at -j1 and -j8 alike. Neither path actually
// consults the sweep executor, which is exactly what the worker-count sweep
// proves: no hidden coupling.
func TestStreamingDifferentialEquivalence(t *testing.T) {
	for _, tc := range streamingDiffCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			popts := core.ProfileOptions{
				Period: pmu.Uniform(tc.period),
				Seed:   parsim.DeriveSeed(101, tc.name),
				NoTime: true,
			}
			run := func() (buffered, streamed []byte) {
				p := tc.fresh()
				prof, err := core.ProfileProgram(p, popts)
				if err != nil {
					t.Fatal(err)
				}
				anBuf, err := core.Analyze(prof, p.Binary, p.Arena, core.AnalyzeOptions{})
				if err != nil {
					t.Fatal(err)
				}
				_, anStream, err := core.ProfileStream(tc.fresh(), popts, core.AnalyzeOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return marshal(t, anBuf), marshal(t, anStream)
			}
			var buf1, str1, buf8, str8 []byte
			atWorkers(1, func() { buf1, str1 = run() })
			atWorkers(8, func() { buf8, str8 = run() })
			if !bytes.Equal(buf1, str1) {
				t.Errorf("streaming analysis differs from buffered at -j1 (%d vs %d bytes)", len(str1), len(buf1))
			}
			if !bytes.Equal(buf8, str8) {
				t.Errorf("streaming analysis differs from buffered at -j8 (%d vs %d bytes)", len(str8), len(buf8))
			}
			if !bytes.Equal(str1, str8) {
				t.Errorf("streaming analysis differs between -j1 and -j8 (%d vs %d bytes)", len(str1), len(str8))
			}
		})
	}
}

// TestStreamingExperimentAllIdentical runs the registered experiment and
// asserts every row reports equivalence — the golden file pins the bytes,
// this pins the meaning.
func TestStreamingExperimentAllIdentical(t *testing.T) {
	rows := sharedRows[[]StreamingRow](t, "streaming")
	if len(rows) == 0 {
		t.Fatal("streaming experiment produced no rows")
	}
	for _, r := range rows {
		if !r.Identical {
			t.Errorf("%s: streaming analysis diverged from buffered", r.App)
		}
		if r.Samples == 0 {
			t.Errorf("%s: no samples analyzed; the equivalence is vacuous", r.App)
		}
	}
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
