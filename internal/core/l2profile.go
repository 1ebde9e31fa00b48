package core

import (
	"fmt"
	"sort"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/rcd"
	"repro/internal/vmem"
	"repro/internal/workloads"
)

// The L2 extension: footnote 1 of the paper notes that L2 and LLC are
// physically indexed, so conflict profiling there needs the
// virtual-to-physical mapping, and leaves it out of scope. With the vmem
// substrate the extension is straightforward: sample L2-miss events,
// translate each sampled address, and run the same RCD machinery over
// *physical* set indices.

// L2ProfileOptions configures the physically-indexed profiling run. The
// run samples misses of the default L1 (mem.L1Default) that also miss
// the 256KiB 8-way private L2 (l2Geometry).
type L2ProfileOptions struct {
	Period pmu.PeriodDist
	Seed   int64
	Policy vmem.Policy // frame-allocation policy of the address space
}

// l2Geometry is the sampled L2: 256KiB, 8-way, 64-byte lines.
var l2Geometry = mem.MustGeometry(64, 512, 8)

// l2Threshold is the short-RCD cutoff over L2 sets: the paper's choice
// scaled to the L2's set count (T = Sets/8, matching 8-of-64 at L1).
var l2Threshold = max(l2Geometry.Sets/8, rcd.DefaultThreshold)

// L2Analysis summarizes physically-indexed L2 conflict behaviour.
type L2Analysis struct {
	Workload string
	Policy   vmem.Policy
	Samples  int
	Events   uint64
	// Threshold is the short-RCD cutoff used (scaled to the L2's sets).
	Threshold int
	// CF is the short-RCD contribution factor over physical L2 sets.
	CF float64
	// SetsUsed counts distinct physical sets among sampled misses.
	SetsUsed int
	// Data maps allocation names (resolved through the *virtual*
	// sampled address) to sample counts.
	Data map[string]int
}

// Conflict applies the builtin classifier to the physical-set cf.
func (a *L2Analysis) Conflict() bool { return DefaultModel().Predict(a.CF) }

// TopData returns the allocation names sorted by sample count (descending).
func (a *L2Analysis) TopData() []string {
	names := make([]string, 0, len(a.Data))
	for n := range a.Data {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if a.Data[names[i]] != a.Data[names[j]] {
			return a.Data[names[i]] > a.Data[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// ProfileL2 runs the workload under L2-miss address sampling with the given
// page-mapping policy and computes RCD metrics over physical set indices.
func ProfileL2(p *workloads.Program, opts L2ProfileOptions) (*L2Analysis, error) {
	if p == nil {
		return nil, ErrNilProgram
	}
	if opts.Period == nil {
		opts.Period = pmu.Uniform(171)
	}
	l1 := mem.L1Default()
	if err := (pmu.Config{Geom: l1, Period: opts.Period}).Validate(); err != nil {
		return nil, fmt.Errorf("core: L2 profile config: %w", err)
	}
	defer obs.Default.StartPhase("profile.l2")()
	space := vmem.NewSpace(opts.Policy, nil)
	s := pmu.NewL2Sampler(pmu.L2Config{
		L1:     l1,
		L2:     l2Geometry,
		Period: opts.Period,
		Seed:   opts.Seed,
		Space:  space,
	})
	p.Run(s)
	s.ObserveInto(obs.Default)

	tr := rcd.New(l2Geometry.Sets)
	an := &L2Analysis{
		Workload: p.Name,
		Policy:   opts.Policy,
		Samples:  len(s.Samples),
		Events:   s.Events,
		Data:     make(map[string]int),
	}
	for _, sm := range s.Samples {
		tr.Observe(l2Geometry.Set(sm.PAddr))
		if blk, ok := findIn(p.Arena, sm.VAddr); ok {
			an.Data[blk]++
		}
	}
	an.Threshold = l2Threshold
	an.CF = tr.ContributionFactor(l2Threshold)
	an.SetsUsed = tr.SetsUsed()
	return an, nil
}

func findIn(ar *alloc.Arena, addr uint64) (string, bool) {
	if ar == nil {
		return "", false
	}
	blk, ok := ar.Find(addr)
	return blk.Name, ok
}
