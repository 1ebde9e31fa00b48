// Package advisor automates the optimization step the paper performs by
// hand: once CCProf names a loop and a data structure, the developer tries
// row pads until the conflicts disappear (§6 pads 32, 64, 288 bytes, or 8
// elements, per case). The advisor searches that space mechanically: given
// a way to rebuild the kernel at any candidate pad, it scores each
// candidate on a fast exact L1 simulation and recommends the cheapest pad
// that removes the conflict signature.
package advisor

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"repro/internal/analytic"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/parsim"
	"repro/internal/rcd"
	"repro/internal/staticconf"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Candidate is one evaluated pad size. Candidates are scored on Cycles — a
// latency-weighted L1+L2 simulation — because padding fixes often pay off
// below L1 (ADI's fix leaves L1 misses unchanged and removes L2 misses).
type Candidate struct {
	Pad      uint64
	Misses   uint64  // exact L1 misses
	L2Misses uint64  // exact L2 misses
	Cycles   uint64  // latency-weighted cost of the simulated run
	CF       float64 // exact short-RCD contribution factor at L1
}

// Result is the advisor's recommendation.
type Result struct {
	// Best is the recommended candidate: among the candidates whose
	// exact CF is below 0.25 (conflictCF; all candidates when none
	// qualifies), the smallest pad within 2% (tolerance) of the minimum
	// cycle cost (smaller pads waste less memory).
	Best Candidate
	// Baseline is the pad-0 candidate, for comparison.
	Baseline Candidate
	// Candidates lists every evaluated pad in evaluation order.
	Candidates []Candidate
	// Pruned lists every pad ruled out without simulation, ascending
	// (tiered runs only; nil otherwise).
	Pruned []uint64
	// PrunedAnalytic lists the pruned pads the closed-form analytic
	// model declared conflicted. Pads in Pruned but not here were
	// analytically clean beyond the keep limit.
	PrunedAnalytic []uint64
	// PrunedStatic is always empty: the enumerating static tier it
	// counted has left the cascade. It stays only because the benchmark
	// module's advise workload still reads it, and goes when that
	// workload's staticconf.eval rung is retired.
	PrunedStatic []uint64
}

// Improvement returns the cycle reduction of Best over Baseline, in [0, 1].
func (r Result) Improvement() float64 {
	if r.Baseline.Cycles == 0 {
		return 0
	}
	return 1 - float64(r.Best.Cycles)/float64(r.Baseline.Cycles)
}

// WriteText renders the result as the advise table both ccprof -advise
// and ccprofd advise artifacts print below their header line: one row
// per simulated candidate with the recommendation marked, the pads the
// analytic tier pruned, and the recommended pad's cycle reduction.
func (r Result) WriteText(w io.Writer) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-8s  %-10s  %-10s  %-12s  %-6s\n", "pad", "L1 misses", "L2 misses", "cycles", "cf")
	for _, c := range r.Candidates {
		marker := ""
		if c.Pad == r.Best.Pad {
			marker = "  <- recommended"
		}
		fmt.Fprintf(&b, "%-8d  %-10d  %-10d  %-12d  %-6.1f%s\n",
			c.Pad, c.Misses, c.L2Misses, c.Cycles, 100*c.CF, marker)
	}
	if len(r.Pruned) > 0 {
		fmt.Fprintf(&b, "\nstatically pruned (no simulation): %v\n", r.Pruned)
		if len(r.PrunedAnalytic) > 0 {
			fmt.Fprintf(&b, "  by the analytic tier: %v\n", r.PrunedAnalytic)
		}
	}
	fmt.Fprintf(&b, "\nrecommended pad: %d bytes (%.1f%% cycle reduction over pad 0)\n",
		r.Best.Pad, 100*r.Improvement())
	_, err := w.Write(b.Bytes())
	return err
}

// Options configures the search.
type Options struct {
	Geom mem.Geometry // zero selects mem.L1Default()
	// Pads are the candidate pad sizes; nil selects DefaultPads.
	Pads []uint64
	// MaxRefs caps the simulated references per candidate (0 = all).
	MaxRefs uint64
	// Tiers selects the advisor cascade (analytic → full simulation).
	// With the analytic tier active, candidate pads are ruled out before
	// any cache simulation runs: only pad 0, pads whose spec is
	// unavailable, and the StaticKeep smallest pads the closed-form model
	// declares clean are simulated. The model classifies a candidate
	// arithmetically in microseconds. If no pad at all comes back clean,
	// the cascade abstains and the full candidate list is swept — the
	// analytic tier narrows the search, it never blocks it.
	//
	// The pruning is simulation-verified: when an analytically-clean pad
	// measures conflicted under simulation (the model was wrong there),
	// or no simulated candidate scores a CF below 0.25, the advisor escalates
	// — it pulls the next StaticKeep analytically-clean pads out of the
	// pruned surplus and simulates them too, batch by batch, until a
	// batch confirms the model's verdicts or the surplus runs out. A
	// miscalibrated model therefore costs extra simulations, not a wrong
	// recommendation.
	Tiers TierPolicy
	// Spec builds the kernel's static access spec at a candidate pad
	// (typically CaseStudy.SpecBuilder()). nil disables pruning even
	// when Tiers enables it.
	Spec func(pad uint64) *staticconf.Spec
	// StaticKeep is how many statically-clean pads survive pruning;
	// 0 selects 4.
	StaticKeep int
	// Workers sets the parallelism of the candidate sweep: each pad is
	// built and simulated on its own worker with its own cache and RCD
	// instances, and results are reassembled in candidate order, so the
	// recommendation is byte-identical at any worker count. 0 selects
	// the process default (GOMAXPROCS, or the -j flag of cmd/ccprof).
	Workers int
}

const (
	// tolerance is the relative slack for "as good as the best" when
	// preferring smaller pads: 0.02 (2%).
	tolerance = 0.02
	// conflictCF is the exact short-RCD contribution factor at or above
	// which a simulated candidate still counts as conflicted: 0.25. The
	// recommendation prefers candidates below it — the advisor's job is
	// to remove the conflict signature, not merely to shave cycles (a
	// pad can score well on cycles because its extra L1 conflict misses
	// hit in L2).
	conflictCF = 0.25
)

// TierPolicy selects whether the advisor cascade prunes the candidate
// list before full simulation. The zero value disables pruning;
// Cascade() enables it.
type TierPolicy struct {
	// Analytic enables the closed-form conflict model
	// (internal/analytic), which classifies a candidate layout without
	// replaying or enumerating a single reference.
	Analytic bool
}

// Cascade is the full policy: the analytic model, then simulation of
// the survivors.
func Cascade() TierPolicy { return TierPolicy{Analytic: true} }

// DefaultPads covers the pad sizes the paper's case studies use (32, 64,
// 128, 288) plus neighbours.
var DefaultPads = []uint64{0, 8, 16, 32, 64, 96, 128, 192, 256, 288}

// RecommendPad evaluates build(pad) for every candidate pad and returns
// the recommendation. build must return a freshly built kernel whose
// relevant rows are padded by the given byte count.
func RecommendPad(build func(pad uint64) *workloads.Program, opts Options) (Result, error) {
	if build == nil {
		return Result{}, fmt.Errorf("advisor: nil build function")
	}
	geom := opts.Geom
	if geom.Sets == 0 {
		geom = mem.L1Default()
	}
	pads := opts.Pads
	if pads == nil {
		pads = DefaultPads
	}
	if len(pads) == 0 {
		return Result{}, fmt.Errorf("advisor: no candidate pads")
	}
	keep := opts.StaticKeep
	if keep == 0 {
		keep = 4
	}

	var res Result
	var vetted map[uint64]bool
	var surplus []uint64
	if opts.Tiers.Analytic && opts.Spec != nil {
		pads, vetted, surplus = tierPrune(pads, opts, geom, keep, &res)
		obs.Default.Counter("advisor.pruned.analytic").Add(uint64(len(res.PrunedAnalytic)))
	}

	// Deduplicate while preserving evaluation order, then fan the
	// candidates across the sweep executor: each pad builds and simulates
	// its kernel independently (own caches, own RCD tracker), and the
	// results come back in candidate order, so the sweep is byte-identical
	// at any worker count.
	seen := map[uint64]bool{}
	uniq := pads[:0:0]
	for _, pad := range pads {
		if !seen[pad] {
			seen[pad] = true
			uniq = append(uniq, pad)
		}
	}
	sim := func(list []uint64) ([]Candidate, error) {
		obs.Default.Counter("advisor.simulated").Add(uint64(len(list)))
		return parsim.Run(len(list), parsim.Options{Workers: opts.Workers},
			func(i int) (Candidate, error) {
				pad := list[i]
				p := build(pad)
				if p == nil {
					return Candidate{}, fmt.Errorf("advisor: build(%d) returned nil", pad)
				}
				c := evaluate(p, geom, opts.MaxRefs)
				c.Pad = pad
				return c, nil
			})
	}
	cands, err := sim(uniq)
	if err != nil {
		return Result{}, err
	}
	res.Candidates = cands

	// Simulation-verified escalation: the analytic tier kept only the
	// smallest clean pads, so check its verdicts against the
	// measurement. If a vetted pad came back conflicted, or nothing
	// simulated so far clears the CF threshold, the model's picture is
	// not trustworthy at this layout — promote the next batch of
	// analytically-clean pads from the pruned surplus into the sweep and
	// repeat until a whole batch confirms the model's verdicts. Each
	// batch must also make geometric progress — cut the best measured
	// CF by at least a quarter: when larger pads stop reducing the
	// conflict signature, padding has given all it has (ADI's residual
	// conflicts live below L1 and its CF plateaus above the threshold)
	// and further escalation would just re-run the full sweep
	// piecewise.
	const escalationGain = 0.75
	batch := cands
	minCF := batch[0].CF
	for _, c := range batch {
		if c.CF < minCF {
			minCF = c.CF
		}
	}
	for len(surplus) > 0 {
		disagree := false
		for _, c := range batch {
			if vetted[c.Pad] && c.CF >= conflictCF {
				disagree = true
				break
			}
		}
		if !disagree {
			poolOK := false
			for _, c := range res.Candidates {
				if c.CF < conflictCF {
					poolOK = true
					break
				}
			}
			if poolOK {
				break
			}
		}
		n := keep
		if n > len(surplus) {
			n = len(surplus)
		}
		next := surplus[:n]
		surplus = surplus[n:]
		promoted := make(map[uint64]bool, len(next))
		for _, pad := range next {
			promoted[pad] = true
			vetted[pad] = true
		}
		kept := res.Pruned[:0]
		for _, pad := range res.Pruned {
			if !promoted[pad] {
				kept = append(kept, pad)
			}
		}
		res.Pruned = kept
		if batch, err = sim(next); err != nil {
			return Result{}, err
		}
		res.Candidates = append(res.Candidates, batch...)
		batchMin := batch[0].CF
		for _, c := range batch {
			if c.CF < batchMin {
				batchMin = c.CF
			}
		}
		if batchMin >= escalationGain*minCF {
			break
		}
		minCF = batchMin
	}

	haveBaseline := false
	for _, c := range res.Candidates {
		if c.Pad == 0 {
			res.Baseline = c
			haveBaseline = true
			break
		}
	}
	if !haveBaseline {
		res.Baseline = res.Candidates[0]
	}

	// The recommendation: among candidates that actually remove the
	// conflict signature (exact CF below the threshold), the smallest
	// pad within tolerance of the minimum cycle cost. When no candidate
	// clears the threshold — some layouts cannot be fixed by padding at
	// all — fall back to ranking every candidate on cycles.
	pool := res.Candidates[:0:0]
	for _, c := range res.Candidates {
		if c.CF < conflictCF {
			pool = append(pool, c)
		}
	}
	if len(pool) == 0 {
		pool = res.Candidates
	}
	min := pool[0].Cycles
	for _, c := range pool {
		if c.Cycles < min {
			min = c.Cycles
		}
	}
	limit := uint64(float64(min) * (1 + tolerance))
	best := pool[0]
	found := false
	for _, c := range pool {
		if c.Cycles > limit {
			continue
		}
		if !found || c.Pad < best.Pad {
			best = c
			found = true
		}
	}
	res.Best = best
	return res, nil
}

// tierPrune runs the analytic model over the candidate pads, smallest
// first: a conflicted verdict removes the pad. Pad 0, specless pads,
// and the keep smallest pads the model declares clean survive to
// simulation; clean pads beyond the keep limit land in the pruned
// surplus, from which RecommendPad escalates if simulation contradicts
// the model. If no pad at all comes back clean the model has nothing
// useful to say and the full candidate list survives untouched.
//
// It returns the pads to simulate, the set of kept pads whose survival
// rests on an analytic clean verdict (candidates for simulation-verified
// escalation), and the analytically-clean surplus in ascending order.
func tierPrune(pads []uint64, opts Options, geom mem.Geometry, keep int, res *Result) (out []uint64, vetted map[uint64]bool, surplus []uint64) {
	sorted := append([]uint64(nil), pads...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var kept []uint64
	vetted = map[uint64]bool{}
	clean := 0
	for i, pad := range sorted {
		if i > 0 && pad == sorted[i-1] {
			continue
		}
		if pad == 0 {
			kept = append(kept, pad)
			continue
		}
		sp := opts.Spec(pad)
		if sp == nil {
			kept = append(kept, pad)
			continue
		}
		done := obs.Default.StartPhase("advisor/analytic")
		r, err := analytic.Analyze(sp, geom, analytic.Options{SkipTouches: true})
		done()
		if err == nil && r.Conflict {
			res.PrunedAnalytic = append(res.PrunedAnalytic, pad)
			res.Pruned = append(res.Pruned, pad)
			continue
		}
		if clean < keep {
			kept = append(kept, pad)
			vetted[pad] = true
			clean++
			continue
		}
		surplus = append(surplus, pad)
		res.Pruned = append(res.Pruned, pad)
	}
	if clean == 0 {
		res.Pruned, res.PrunedAnalytic = nil, nil
		return pads, nil, nil
	}
	return kept, vetted, surplus
}

// evalSink is the advisor's cost model: the configured L1 backed by a
// 256KiB L2 (the private L2 of the evaluated machines), costed with the
// Broadwell latency table. The workload delivers references in
// struct-of-arrays blocks, and each cache classifies a block in one fused
// pass (cache.BlockMisses): the L1 every reference, the L2 the block's L1
// misses — a few percent of references — which also pay the RCD
// bookkeeping.
type evalSink struct {
	geom    mem.Geometry
	l1, l2  *cache.Cache
	lat     mem.Latency
	tr      *rcd.Tracker
	maxRefs uint64
	n       uint64
	cycles  uint64

	// Scratch for the block path, pooled with the evaluator: the L1 miss
	// indices, their addresses, and the L2 miss indices among those.
	miss, l2Miss []int32
	missAddr     []uint64
}

// RefBlock implements trace.Sink — the fused fast path. Outcomes are
// identical to simulating each reference in turn: the RCD tracker and the
// L2 share no state, so probing the L2 after the block's last L1 miss
// rather than after each one leaves every cache state, statistic and
// cycle count unchanged — the L2 still sees the L1 misses in order.
func (e *evalSink) RefBlock(b *trace.RefBlock) {
	addrs := b.Addr
	if e.maxRefs > 0 {
		if left := e.maxRefs - e.n; uint64(len(addrs)) > left {
			addrs = addrs[:left]
		}
	}
	e.n += uint64(len(addrs))
	e.miss = e.l1.BlockMisses(addrs, e.miss[:0])
	offBits, setMask := e.geom.OffsetBits(), e.geom.SetMask()
	missAddr := e.missAddr[:0]
	for _, i := range e.miss {
		addr := addrs[i]
		e.tr.Observe(int((addr >> offBits) & setMask))
		missAddr = append(missAddr, addr)
	}
	e.missAddr = missAddr
	e.l2Miss = e.l2.BlockMisses(missAddr, e.l2Miss[:0])
	l1Hits, l2Hits := len(addrs)-len(missAddr), len(missAddr)-len(e.l2Miss)
	e.cycles += uint64(l1Hits)*uint64(e.lat.L1Hit) + uint64(l2Hits)*uint64(e.lat.L2Hit) +
		uint64(len(e.l2Miss))*uint64(e.lat.Memory)
}

// evalPool recycles evaluator state (two cache models and an RCD tracker)
// across sweep candidates. Every part is rewound before use — cache.Reset
// and rcd.Reset leave state indistinguishable from freshly constructed — so
// which candidate reuses which evaluator cannot influence results.
var evalPool parsim.Pool[*evalSink]

// l2Geom is the fixed 256KiB 8-way private L2 of the cost model.
func l2Geom(geom mem.Geometry) mem.Geometry {
	return mem.MustGeometry(geom.LineSize, 512, 8)
}

func evaluate(p *workloads.Program, geom mem.Geometry, maxRefs uint64) Candidate {
	e := evalPool.Get()
	if e == nil || e.geom != geom {
		e = &evalSink{
			geom: geom,
			l1:   cache.New(geom, cache.LRU, nil),
			l2:   cache.New(l2Geom(geom), cache.LRU, nil),
			tr:   rcd.New(geom.Sets),
		}
	} else {
		e.l1.Reset()
		e.l2.Reset()
		e.tr.Reset(geom.Sets)
	}
	e.lat = mem.Broadwell().Lat
	e.maxRefs = maxRefs
	e.n, e.cycles = 0, 0
	// The evaluator owns all its state, so the kernel may run beside it,
	// and it reads addresses only, so the kernel skips its numerics.
	p.RunAddressesPipelined(e)
	c := Candidate{
		Misses:   e.l1.Misses,
		L2Misses: e.l2.Misses,
		Cycles:   e.cycles,
		CF:       e.tr.ContributionFactor(rcd.DefaultThreshold),
	}
	evalPool.Put(e)
	return c
}
