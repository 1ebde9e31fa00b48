package experiments

import (
	"io"
	"math/rand"

	"repro/internal/alloc"
	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/objfile"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// BaselineRow is one detector's scorecard over the labelled kernels.
type BaselineRow struct {
	Detector string
	stats.Confusion
	// FullTrace reports whether the detector needs every reference
	// (hardware/simulator lane) or only PMU samples.
	FullTrace bool
}

// staticVictimKernel hammers one cache set from a page-strided table with
// pseudo-random accesses: the conflict never moves, so even a global
// histogram sees it. It is the fair case for the DProf-style detector.
func staticVictimKernel() *workloads.Program {
	b := objfile.NewBuilder("static-victim")
	b.Func("main")
	b.Loop("sv.c", 1)
	ld := b.Load("sv.c", 2)
	b.EndLoop()
	bin := b.Finish()
	ar := alloc.NewArena()
	tbl := ar.Alloc("table", 256*4096, 4096)
	return workloads.NewProgram("static-victim", bin, ar, func(tid, threads int, sink *trace.Emitter) {
		if tid != 0 {
			return
		}
		rng := rand.New(rand.NewSource(61))
		for i := 0; i < 300_000; i++ {
			sink.Ref(trace.Ref{IP: ld, Addr: tbl.Start + uint64(rng.Intn(256))*4096})
		}
	})
}

// roundRobinKernel cycles over ways+1 lines of a single set — the textbook
// thrash pattern where each miss re-fetches the line evicted on the
// previous miss. It is the fair case for the depth-1 MST detector.
func roundRobinKernel(geom mem.Geometry) *workloads.Program {
	b := objfile.NewBuilder("round-robin")
	b.Func("main")
	b.Loop("rr.c", 1)
	ld := b.Load("rr.c", 2)
	b.EndLoop()
	bin := b.Finish()
	ar := alloc.NewArena()
	k := geom.Ways + 1
	span := uint64(geom.Sets) * uint64(geom.LineSize)
	blk := ar.Alloc("ring", uint64(k)*span, span)
	return workloads.NewProgram("round-robin", bin, ar, func(tid, threads int, sink *trace.Emitter) {
		if tid != 0 {
			return
		}
		for i := 0; i < 200_000; i++ {
			sink.Ref(trace.Ref{IP: ld, Addr: blk.Start + uint64(i%k)*span})
		}
	})
}

// Baselines compares CCProf's RCD classifier against the related-work
// detectors of §7.1 on the 16 labelled training kernels plus two
// static-conflict kernels (where the baselines are at their best):
//
//   - CCProf: sampled RCD contribution factor + the builtin logistic model.
//   - DProf-style (Pesterev et al.): the same samples, but only the global
//     per-set histogram — the uniform-workload assumption the paper
//     criticizes. Rotating victims (ADI's column sweep, NW's wavefronts)
//     look globally balanced and escape it; the static-victim kernel is
//     caught.
//   - MST (Collins & Tullsen): the hardware miss-classification table —
//     full-trace, but only classifies a miss whose tag matches the set's
//     most recent victim, so only tight thrash loops are caught.
//   - 3C simulation: exact cold/capacity/conflict classification on the
//     full trace. Note it calls ADI and Kripke "capacity" (their working
//     sets exceed even a fully-associative cache) although padding and
//     interchange fix them — the actionable notion CCProf targets treats
//     concentrated capacity misses as conflicts (§3.3).
func Baselines(w io.Writer, scale Scale) ([]BaselineRow, error) {
	progs, labels := trainingPrograms(scale)
	geom := mem.L1Default()
	progs = append(progs, staticVictimKernel(), roundRobinKernel(geom))
	labels = append(labels, true, true)

	ccprofRow := BaselineRow{Detector: "CCProf (RCD, sampled)"}
	dprofRow := BaselineRow{Detector: "DProf-style (histogram, sampled)"}
	mstRow := BaselineRow{Detector: "MST (hardware, full trace)", FullTrace: true}
	threeCRow := BaselineRow{Detector: "3C classification (full trace)", FullTrace: true}
	model := core.DefaultModel()

	for i, p := range progs {
		// Sampled lane: one profiling run feeds both CCProf and DProf.
		prof, err := profileAt(p, Fig7Period, 47+int64(i))
		if err != nil {
			return nil, err
		}
		an, err := core.Analyze(prof, p.Binary, p.Arena, core.AnalyzeOptions{})
		if err != nil {
			return nil, err
		}
		ccprofRow.Observe(model.Predict(an.CF), labels[i])

		dp := baseline.NewDProf(geom.Sets)
		for _, thread := range prof.Samples {
			for _, sm := range thread {
				dp.Observe(geom.Set(sm.Addr))
			}
		}
		dprofRow.Observe(dp.Verdict(4), labels[i])

		// Full-trace lane.
		mst := baseline.NewMST(geom)
		p.Run(mst)
		mstRow.Observe(mst.Verdict(0.30), labels[i])

		cl := cache.NewClassifier(geom)
		p.Run(trace.SinkFunc(func(r trace.Ref) { cl.Access(r.Addr) }))
		threeCRow.Observe(cl.ConflictRatio() >= 0.25, labels[i])
	}

	rows := []BaselineRow{ccprofRow, dprofRow, mstRow, threeCRow}
	if w != nil {
		t := report.NewTable("Detector comparison — 18 labelled kernels (10 conflicted / 8 clean)",
			"detector", "needs full trace", "TP", "FP", "TN", "FN", "F1")
		for _, r := range rows {
			t.Row(r.Detector, r.FullTrace, r.TP, r.FP, r.TN, r.FN, r.F1())
		}
		if err := t.Write(w); err != nil {
			return rows, err
		}
		fprintf(w, "DProf's global histogram only sees the static victim; depth-1 MST only\n")
		fprintf(w, "the tight thrash loop; exact 3C misclassifies the padding-fixable\n")
		fprintf(w, "capacity-concentration cases (ADI, Kripke) that RCD treats as conflicts.\n")
	}
	return rows, nil
}
