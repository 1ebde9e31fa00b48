package experiments

import (
	"io"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Fig8Point is one x-position of Figure 8: classification F1 (8-fold CV
// over the 16 training loops) and mean modeled runtime overhead, at one
// mean sampling period.
type Fig8Point struct {
	Period   uint64
	F1       float64
	Overhead float64
}

// Fig8Periods is the sampling-period sweep. The paper reports F1 = 1 at a
// mean period of 171 and F1 ≈ 0.83 at 1212 (2.9x overhead).
var Fig8Periods = []uint64{31, 63, 171, 577, 1212, 2048, 4096}

// trainingPrograms returns the 16 labelled training kernels (8 with
// conflict misses, 8 without), mirroring §5.2's 16 representative loops.
func trainingPrograms(scale Scale) ([]*workloads.Program, []bool) {
	var conflict []*workloads.Program
	if scale == Quick {
		conflict = []*workloads.Program{
			workloads.NewADI(256, 1).Original,
			workloads.NewFFT(128).Original,
			workloads.NewTinyDNN(128, 1024, 1).Original,
			workloads.NewKripke(64, 32, 32).Original,
			workloads.NewSymmetrization(128).Original,
			workloads.NewNW(256, 16).Original,
			workloads.NewADI(128, 1).Original,
			workloads.NewTinyDNN(64, 512, 1).Original,
		}
	} else {
		conflict = []*workloads.Program{
			workloads.NewADI(512, 1).Original,
			workloads.NewFFT(256).Original,
			workloads.NewTinyDNN(256, 1024, 1).Original,
			workloads.NewKripke(128, 64, 32).Original,
			workloads.NewSymmetrization(128).Original,
			workloads.NewNW(512, 16).Original,
			workloads.NewADI(256, 1).Original,
			workloads.NewTinyDNN(128, 512, 1).Original,
		}
	}
	clean := []*workloads.Program{
		workloads.Backprop(),
		workloads.BFS(),
		workloads.Kmeans(),
		workloads.LUD(),
		workloads.Pathfinder(),
		workloads.SRAD(),
		workloads.Streamcluster(),
		workloads.Heartwall(),
	}
	progs := append(conflict, clean...)
	labels := make([]bool, len(progs))
	for i := range conflict {
		labels[i] = true
	}
	return progs, labels
}

// Fig8 sweeps the sampling period, training and cross-validating the
// conflict classifier at each point and reporting the modeled overhead.
func Fig8(w io.Writer, scale Scale, periods []uint64) ([]Fig8Point, error) {
	if len(periods) == 0 {
		periods = Fig8Periods
	}
	progs, labels := trainingPrograms(scale)
	om := core.DefaultOverheadModel()

	var out []Fig8Point
	for _, period := range periods {
		features := make([]float64, len(progs))
		var ovSum float64
		for i, p := range progs {
			prof, an, err := analyzed(p, period, 11+int64(i))
			if err != nil {
				return nil, err
			}
			features[i] = an.CF
			ovSum += om.ProfilingOf(prof)
		}
		conf, err := classify.CrossValidate(features, labels, 8, stats.NewRand(int64(period)))
		if err != nil {
			return nil, err
		}
		out = append(out, Fig8Point{
			Period:   period,
			F1:       conf.F1(),
			Overhead: ovSum / float64(len(progs)),
		})
	}

	if w != nil {
		t := report.NewTable("Figure 8 — F1-score and mean runtime overhead vs. sampling period",
			"mean sampling period", "F1-score", "mean overhead")
		for _, p := range out {
			t.Row(p.Period, p.F1, report.Times(p.Overhead))
		}
		if err := t.Write(w); err != nil {
			return out, err
		}
	}
	return out, nil
}
