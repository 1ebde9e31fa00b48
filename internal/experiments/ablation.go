package experiments

import (
	"io"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/pmu"
	"repro/internal/rcd"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Ablation experiments for the design choices DESIGN.md calls out. These
// have no direct counterpart figure in the paper; they probe how sensitive
// the reproduction is to the RCD threshold, the sampling-period
// distribution, and the L1 replacement policy.

// ThresholdRow is the separation margin between conflicted and clean
// kernels at one short-RCD threshold T.
type ThresholdRow struct {
	T           int
	MinConflict float64 // smallest cf among conflicted kernels
	MaxClean    float64 // largest cf among clean kernels
	Margin      float64 // MinConflict - MaxClean; positive = separable
}

// AblationThreshold sweeps T and measures whether the conflicted and clean
// training kernels stay linearly separable on cf alone.
func AblationThreshold(w io.Writer, scale Scale, thresholds []int) ([]ThresholdRow, error) {
	if len(thresholds) == 0 {
		thresholds = []int{2, 4, 8, 16, 32}
	}
	progs, labels := trainingPrograms(scale)
	// Profile once; recompute cf at each threshold from the same samples.
	profiles := make([]*core.Profile, len(progs))
	for i, p := range progs {
		prof, err := profileAt(p, Fig7Period, 23+int64(i))
		if err != nil {
			return nil, err
		}
		profiles[i] = prof
	}
	var rows []ThresholdRow
	for _, T := range thresholds {
		row := ThresholdRow{T: T, MinConflict: 1}
		for i, prof := range profiles {
			an, err := core.Analyze(prof, progs[i].Binary, progs[i].Arena,
				core.AnalyzeOptions{Threshold: T})
			if err != nil {
				return nil, err
			}
			if labels[i] {
				if an.CF < row.MinConflict {
					row.MinConflict = an.CF
				}
			} else if an.CF > row.MaxClean {
				row.MaxClean = an.CF
			}
		}
		row.Margin = row.MinConflict - row.MaxClean
		rows = append(rows, row)
	}
	if w != nil {
		t := report.NewTable("Ablation — short-RCD threshold T (separation of 16 training loops, SP=171)",
			"T", "min cf (conflicted)", "max cf (clean)", "margin")
		for _, r := range rows {
			t.Row(r.T, report.Pct(r.MinConflict), report.Pct(r.MaxClean), report.Pct(r.Margin))
		}
		if err := t.Write(w); err != nil {
			return rows, err
		}
	}
	return rows, nil
}

// PeriodDistRow compares sampling-period distributions at one mean.
type PeriodDistRow struct {
	Dist   string
	CFOrig float64
	CFOpt  float64
}

// AblationPeriodDist compares fixed, uniform and geometric period
// randomization on the ADI pair: all should separate original from padded,
// but a fixed period risks phase-locking with periodic miss patterns.
func AblationPeriodDist(w io.Writer, scale Scale, mean uint64) ([]PeriodDistRow, error) {
	if mean == 0 {
		mean = Fig7Period
	}
	n := 512
	if scale == Quick {
		n = 256
	}
	cs := workloads.NewADI(n, 1)
	dists := []pmu.PeriodDist{pmu.Fixed(mean), pmu.Uniform(mean), pmu.Geometric(mean)}
	var rows []PeriodDistRow
	for _, d := range dists {
		cfOf := func(p *workloads.Program) (float64, error) {
			prof, err := core.ProfileProgram(p, core.ProfileOptions{Period: d, Seed: 31, NoTime: true})
			if err != nil {
				return 0, err
			}
			an, err := core.Analyze(prof, p.Binary, p.Arena, core.AnalyzeOptions{})
			if err != nil {
				return 0, err
			}
			return an.CF, nil
		}
		o, err := cfOf(cs.Original)
		if err != nil {
			return nil, err
		}
		p, err := cfOf(cs.Optimized)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PeriodDistRow{Dist: d.String(), CFOrig: o, CFOpt: p})
	}
	if w != nil {
		t := report.NewTable("Ablation — sampling-period distribution (ADI, mean period shown in name)",
			"distribution", "cf original", "cf padded")
		for _, r := range rows {
			t.Row(r.Dist, report.Pct(r.CFOrig), report.Pct(r.CFOpt))
		}
		if err := t.Write(w); err != nil {
			return rows, err
		}
	}
	return rows, nil
}

// ReplacementRow compares replacement policies on the exact simulator.
type ReplacementRow struct {
	Policy     string
	Misses     uint64
	Imbalance  float64
	MissesPad  uint64
	PadBenefit float64 // miss reduction from padding under this policy
}

// AblationReplacement replays the symmetrization pair against L1 models
// with LRU, FIFO and random replacement: the conflict phenomenon (and the
// padding fix) is a property of the set mapping, so it must survive every
// policy.
func AblationReplacement(w io.Writer, scale Scale) ([]ReplacementRow, error) {
	cs := workloads.NewSymmetrization(128)
	policies := []cache.Policy{cache.LRU, cache.FIFO, cache.Random}
	var rows []ReplacementRow
	for _, pol := range policies {
		run := func(p *workloads.Program) *cache.Cache {
			c := cache.New(mem.L1Default(), pol, stats.NewRand(41))
			p.Run(trace.SinkFunc(func(r trace.Ref) { c.Access(r.Addr) }))
			return c
		}
		orig := run(cs.Original)
		pad := run(cs.Optimized)
		row := ReplacementRow{
			Policy:    pol.String(),
			Misses:    orig.Misses,
			Imbalance: imbalance(orig.SetMisses),
			MissesPad: pad.Misses,
		}
		if orig.Misses > 0 {
			row.PadBenefit = 1 - float64(pad.Misses)/float64(orig.Misses)
		}
		rows = append(rows, row)
	}
	if w != nil {
		t := report.NewTable("Ablation — L1 replacement policy (symmetrization)",
			"policy", "misses (orig)", "set imbalance", "misses (padded)", "padding benefit")
		for _, r := range rows {
			t.Row(r.Policy, r.Misses, r.Imbalance, r.MissesPad, report.Pct(r.PadBenefit))
		}
		if err := t.Write(w); err != nil {
			return rows, err
		}
	}
	return rows, nil
}

// AssociativityRow measures conflict visibility at one associativity.
type AssociativityRow struct {
	Ways      int
	Misses    uint64
	MissRatio float64
	CF        float64
}

// AblationAssociativity sweeps L1 associativity at fixed capacity (32KiB):
// conflicts are a set-associativity phenomenon. The workload cycles over 12
// lines that share one set index, so configurations with fewer than 12 ways
// thrash (every access misses, all short RCDs) while the 16-way
// configuration holds the working set and misses collapse to cold misses.
func AblationAssociativity(w io.Writer, scale Scale) ([]AssociativityRow, error) {
	const conflictDegree = 12
	var rows []AssociativityRow
	for _, ways := range []int{1, 2, 4, 8, 16} {
		sets := (32 << 10) / 64 / ways
		geom := mem.MustGeometry(64, sets, ways)
		c := cache.New(geom, cache.LRU, nil)
		tr := rcd.New(geom.Sets)
		// 12 lines spaced one full set-span apart: same index bits in
		// every swept configuration.
		span := uint64(32 << 10) // capacity = sets*ways*64 is constant
		for rep := 0; rep < 2000; rep++ {
			for k := uint64(0); k < conflictDegree; k++ {
				addr := k * span
				if !c.Access(addr).Hit {
					tr.Observe(geom.Set(addr))
				}
			}
		}
		rows = append(rows, AssociativityRow{
			Ways:      ways,
			Misses:    c.Misses,
			MissRatio: c.MissRatio(),
			CF:        tr.ContributionFactor(maxInt(geom.Sets/8, rcd.DefaultThreshold)),
		})
	}
	if w != nil {
		t := report.NewTable("Ablation — L1 associativity at fixed 32KiB capacity (12-way conflict ring)",
			"ways", "sets", "misses", "miss ratio", "cf")
		for _, r := range rows {
			t.Row(r.Ways, (32<<10)/64/r.Ways, r.Misses, r.MissRatio, report.Pct(r.CF))
		}
		if err := t.Write(w); err != nil {
			return rows, err
		}
	}
	return rows, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BurstRow compares single-event and bursty sampling at an equal sample
// budget.
type BurstRow struct {
	Mode         string
	MeanConflict float64 // mean cf over the conflicted kernels
	MeanClean    float64 // mean cf over the clean kernels
	F1           float64 // builtin-model F1 over all 16
	MeanSamples  float64
}

// AblationBurst compares single-event sampling at mean period P against
// bursty sampling taking B consecutive events every B*P — the same sample
// budget and hence roughly the same overhead. Bursts see exact within-burst
// miss distances (the paper's "bursty sampling" approximation of RCD), so
// they retain separation at budgets where sparse single events blur it.
func AblationBurst(w io.Writer, scale Scale) ([]BurstRow, error) {
	progs, labels := trainingPrograms(scale)
	const period, burst = 577, 8
	modes := []struct {
		name   string
		period uint64
		burst  int
	}{
		{"single, SP=577", period, 1},
		{"burst 8, SP=4616", period * burst, burst},
	}
	model := core.DefaultModel()
	var rows []BurstRow
	for _, m := range modes {
		row := BurstRow{Mode: m.name}
		var samples float64
		var conf stats.Confusion
		nConf, nClean := 0, 0
		for i, p := range progs {
			prof, err := core.ProfileProgram(p, core.ProfileOptions{
				Period: pmu.Uniform(m.period),
				Seed:   71 + int64(i),
				Burst:  m.burst,
				NoTime: true,
			})
			if err != nil {
				return nil, err
			}
			an, err := core.Analyze(prof, p.Binary, p.Arena, core.AnalyzeOptions{})
			if err != nil {
				return nil, err
			}
			samples += float64(prof.SampleCount())
			conf.Observe(model.Predict(an.CF), labels[i])
			if labels[i] {
				row.MeanConflict += an.CF
				nConf++
			} else {
				row.MeanClean += an.CF
				nClean++
			}
		}
		row.MeanConflict /= float64(nConf)
		row.MeanClean /= float64(nClean)
		row.F1 = conf.F1()
		row.MeanSamples = samples / float64(len(progs))
		rows = append(rows, row)
	}
	if w != nil {
		t := report.NewTable("Ablation — bursty vs single-event sampling at equal sample budget",
			"mode", "mean cf (conflicted)", "mean cf (clean)", "F1", "mean samples")
		for _, r := range rows {
			t.Row(r.Mode, report.Pct(r.MeanConflict), report.Pct(r.MeanClean), r.F1, r.MeanSamples)
		}
		if err := t.Write(w); err != nil {
			return rows, err
		}
	}
	return rows, nil
}
