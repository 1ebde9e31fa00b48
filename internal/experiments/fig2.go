package experiments

import (
	"io"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Fig2Result reproduces the §2.1 motivating experiment (Figure 2): the
// symmetrization kernel on a 128x128 matrix, with and without a 64-byte
// row pad, through a private L1+L2 hierarchy. The paper reports that
// padding cuts L2 misses by up to 91.4% and flattens the L1 set-miss
// histogram.
type Fig2Result struct {
	L2MissesOrig, L2MissesPad uint64
	L2ReductionPct            float64
	L1MissesOrig, L1MissesPad uint64
	// SetImbalanceOrig/Pad are max-over-mean per-set L1 miss ratios: high
	// for the unpadded kernel (a few victim sets), near 1 after padding.
	SetImbalanceOrig, SetImbalancePad float64
}

// Fig2 runs the experiment, rendering to w when non-nil.
//
// Scale substitution: at the paper's 128x128 the whole matrix fits in our
// simulated 256KiB L2, so no L2 conflicts can occur; we scale the matrix to
// 512x512 (Quick: 256x256), where the same "row size is a multiple of the
// cache way size" geometry holds at both L1 and L2, and run the kernel
// twice so the conflicts destroy actual reuse rather than cold traffic.
func Fig2(w io.Writer, scale Scale) (Fig2Result, error) {
	n := 512
	if scale == Quick {
		n = 256
	}
	cs := workloads.NewSymmetrizationReps(n, 2)

	run := func(p *workloads.Program) (l1, l2 *cache.Cache) {
		m := mem.Broadwell()
		l1 = cache.New(m.L1, cache.LRU, nil)
		l2 = cache.New(m.L2, cache.LRU, nil)
		p.Run(trace.SinkFunc(func(r trace.Ref) {
			if !l1.Access(r.Addr).Hit {
				l2.Access(r.Addr)
			}
		}))
		return l1, l2
	}

	l1o, l2o := run(cs.Original)
	l1p, l2p := run(cs.Optimized)

	res := Fig2Result{
		L2MissesOrig: l2o.Misses, L2MissesPad: l2p.Misses,
		L1MissesOrig: l1o.Misses, L1MissesPad: l1p.Misses,
		SetImbalanceOrig: imbalance(l1o.SetMisses),
		SetImbalancePad:  imbalance(l1p.SetMisses),
	}
	if l2o.Misses > 0 {
		res.L2ReductionPct = 100 * (1 - float64(l2p.Misses)/float64(l2o.Misses))
	}

	if w != nil {
		t := report.NewTable("Figure 2 — symmetrization, 64B row padding (paper: up to 91.4% L2 miss reduction)",
			"variant", "L1 misses", "L2 misses", "L1 set imbalance (max/mean)")
		t.Row("original", res.L1MissesOrig, res.L2MissesOrig, res.SetImbalanceOrig)
		t.Row("padded", res.L1MissesPad, res.L2MissesPad, res.SetImbalancePad)
		if err := t.Write(w); err != nil {
			return res, err
		}
		fprintf(w, "L2 miss reduction: %.1f%%\n", res.L2ReductionPct)
	}
	return res, nil
}

func imbalance(setMisses []uint64) float64 {
	var max, total uint64
	for _, m := range setMisses {
		total += m
		if m > max {
			max = m
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) * float64(len(setMisses)) / float64(total)
}
