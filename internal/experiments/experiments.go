// Package experiments regenerates every table and figure of the paper's
// evaluation (§5-§6). Each experiment returns structured results and can
// render itself as text; cmd/experiments and the root benchmark harness are
// thin wrappers around these functions.
//
// Scale note: the workloads run at laptop scale (see DESIGN.md), so
// absolute numbers differ from the paper's testbed; the reproduced claims
// are the qualitative shapes — who conflicts, what padding does, how
// accuracy and overhead trade off against the sampling period.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Scale selects experiment sizing.
type Scale int

// Experiment scales: Full reproduces the default workload sizes, Quick
// shrinks them so the whole suite runs in seconds (used by tests).
const (
	Full Scale = iota
	Quick
)

// caseStudies returns the six paper case studies at the given scale, in
// the paper's Table 2/3 order.
func caseStudies(s Scale) []*workloads.CaseStudy {
	if s == Quick {
		return []*workloads.CaseStudy{
			workloads.NewNW(512, 16),
			workloads.NewFFT(128),
			workloads.NewADI(256, 1),
			workloads.NewTinyDNN(128, 1024, 1),
			workloads.NewKripke(64, 32, 32),
			workloads.NewHimeno(16, 16, 64, 1),
		}
	}
	return []*workloads.CaseStudy{
		workloads.NewNW(1024, 16),
		workloads.NewFFT(256),
		workloads.NewADI(512, 2),
		workloads.NewTinyDNN(256, 1024, 4),
		workloads.NewKripke(128, 64, 32),
		workloads.NewHimeno(32, 32, 64, 2),
	}
}

// profileAt profiles a program sequentially at the given mean period.
func profileAt(p *workloads.Program, period uint64, seed int64) (*core.Profile, error) {
	return core.ProfileProgram(p, core.ProfileOptions{
		Period: pmu.Uniform(period),
		Seed:   seed,
		NoTime: true,
	})
}

// analyzed profiles and analyzes a program at the given period.
func analyzed(p *workloads.Program, period uint64, seed int64) (*core.Profile, *core.Analysis, error) {
	prof, err := profileAt(p, period, seed)
	if err != nil {
		return nil, nil, err
	}
	an, err := core.Analyze(prof, p.Binary, p.Arena, core.AnalyzeOptions{})
	if err != nil {
		return nil, nil, err
	}
	return prof, an, nil
}

// simulateThreaded replays a program on a machine's full hierarchy with the
// given thread count, interleaving per-thread streams chunk-wise. The
// populated system's statistics merge into the process registry before it
// is returned.
func simulateThreaded(p *workloads.Program, m mem.Machine, threads int) *cache.System {
	defer obs.Default.StartPhase("simulate")()
	if threads < 1 {
		threads = 1
	}
	if threads > m.Threads {
		threads = m.Threads
	}
	sys := cache.NewSystem(m, threads)
	rec := trace.NewThreadedRecorder(threads)
	for tid := 0; tid < threads; tid++ {
		p.RunThread(tid, threads, rec.Thread(tid))
	}
	sys.Interleave(rec.Streams, 64)
	sys.ObserveInto(obs.Default)
	return sys
}

func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
