package core

import (
	"slices"

	"repro/internal/alloc"
	"repro/internal/cfg"
	"repro/internal/classify"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/parsim"
	"repro/internal/rcd"
	"repro/internal/stats"
)

// LoopReport is the per-loop output of code-centric attribution: the
// columns of Table 4 plus the RCD metrics and the classifier verdict.
type LoopReport struct {
	// Loop names the loop by its header source location (e.g.
	// "needle.cpp:189"); anonymous code blocks get "loop@<addr>".
	Loop  string
	Depth int
	// Samples is the number of L1-miss samples attributed to the loop;
	// Contribution is its share of all samples (the paper's "L1 cache
	// miss contribution").
	Samples      int
	Contribution float64
	// SetsUsed counts cache sets that received at least one sampled miss
	// in this loop (Table 4's rightmost column).
	SetsUsed int
	// CF is the short-RCD contribution factor of the loop (Equation 1)
	// at the analysis threshold.
	CF float64
	// MeanCP is the mean conflict-period length observed in the loop.
	MeanCP float64
	// Conflict is the classifier verdict: does this loop suffer from
	// conflict misses?
	Conflict bool
	// VictimSets lists sets receiving more than twice the uniform miss
	// share within this loop.
	VictimSets []int
	// CDF is the loop's RCD distribution (Figures 7 and 9).
	CDF []CDFPoint
}

// CDFPoint mirrors stats.CDFPoint for report consumers.
type CDFPoint struct {
	RCD int
	Cum float64
}

// DataReport is the per-allocation output of data-centric attribution.
type DataReport struct {
	// Name is the allocation label (data-structure name).
	Name string
	// Samples is the number of samples falling inside the allocation;
	// ShortRCD of those, the number whose sampled RCD was short —
	// the data structures responsible for conflicts.
	Samples      int
	ShortRCD     int
	Contribution float64
}

// FuncReport is the per-function view of code-centric attribution: the
// paper's program contexts are "loops, functions", and function-level
// rollups are what anonymous closed-source regions (MKL) degrade to.
type FuncReport struct {
	Func         string
	Samples      int
	Contribution float64
	CF           float64
}

// Analysis is the complete offline-analysis result for one profile.
type Analysis struct {
	Workload  string
	Threshold int
	// TotalSamples is the number of samples analyzed.
	TotalSamples int
	// Loops is sorted by decreasing sample count.
	Loops []LoopReport
	// Funcs is the function-level rollup, sorted by decreasing samples.
	Funcs []FuncReport
	// Data is sorted by decreasing sample count.
	Data []DataReport
	// ActiveInnerLoops counts innermost loops that received samples
	// (Table 2's "# of active inner loops").
	ActiveInnerLoops int
	// CF and CDF are the whole-program pooled metrics.
	CF  float64
	CDF []CDFPoint
	// Conflict is the whole-program classifier verdict.
	Conflict bool
	// Unattributed counts samples whose IP matched no recovered loop.
	Unattributed int
}

// TargetLoop returns the report for the loop with the given name, if any.
func (a *Analysis) TargetLoop(name string) (LoopReport, bool) {
	for _, l := range a.Loops {
		if l.Loop == name {
			return l, true
		}
	}
	return LoopReport{}, false
}

// AnalyzeOptions configures the offline analyzer. The zero value uses the
// paper's threshold T = 8 and the built-in classifier model.
type AnalyzeOptions struct {
	Threshold int                // 0 selects rcd.DefaultThreshold
	Model     *classify.Logistic // nil selects DefaultModel()
	// MinLoopSamples suppresses loops with fewer samples from conflict
	// classification (they get Conflict=false); default 8.
	MinLoopSamples int
}

func (o AnalyzeOptions) withDefaults() AnalyzeOptions {
	if o.Threshold == 0 {
		o.Threshold = rcd.DefaultThreshold
	}
	if o.Model == nil {
		DefaultModel() // ensure the builtin model is trained
		o.Model = &defaultModel
	}
	if o.MinLoopSamples == 0 {
		o.MinLoopSamples = 8
	}
	return o
}

// loopState accumulates per-loop sample statistics during attribution.
type loopState struct {
	loop     *cfg.Loop
	samples  int
	trackers []*rcd.CPTracker // one per thread
}

// codeSlot is one instruction's attribution: the index in Binary.Funcs of
// its function (-1 for none), its innermost loop (nil for none), and the
// arena block its latest sample fell in — the first guess for its next,
// since an instruction's samples nearly always stay in one array.
type codeSlot struct {
	fn    int32
	block int32
	loop  *cfg.Loop
}

// attrState is Analyze's reusable attribution state. Every per-sample
// count lives in a slice indexed by something the sample's lookup already
// produced — an instruction slot, a loop ID, an arena block index, a
// Binary.Funcs index — and finish folds them by name. Pooling keeps the
// slices' capacity across a sweep.
type attrState struct {
	// code is the per-instruction attribution table of the analyzed
	// binary, indexed by (ip - Instrs[0].Addr) / objfile.InstrSize.
	code []codeSlot

	// loops holds each sampled loop's state by cfg.Loop.ID (nil until its
	// first sample); active lists the same states in first-sample order,
	// for burst breaks and finish.
	loops  []*loopState
	active []*loopState

	// Sample and short-RCD counts by arena block index and by Binary.Funcs
	// index.
	dataSamples, dataShort []int
	funcSamples, funcShort []int

	// unattributed counts samples whose IP matched no recovered loop.
	unattributed int

	// states is a free list of loopState values: every state ever built by
	// this attrState, reused in order. Entries are individually allocated so
	// pointers held by loops stay stable as the list grows.
	states []*loopState
	used   int

	// globals is the reused per-thread whole-program tracker slice.
	globals []*rcd.CPTracker
}

// zeroed returns s resized to n entries, all zero, reusing its storage.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (at *attrState) clear() {
	at.unattributed = 0
	for _, st := range at.states[:at.used] {
		st.loop = nil
		for i := range st.trackers {
			st.trackers[i] = nil // trackers went back to cpPool
		}
	}
	at.used = 0
	at.active = at.active[:0]
	for i := range at.globals {
		at.globals[i] = nil
	}
}

// takeLoopState hands out the next free loopState, ready for a new loop
// context: samples zeroed and the tracker slice sized to threads (entries
// nil; the caller fills them from the tracker pool).
func (at *attrState) takeLoopState(loop *cfg.Loop, threads int) *loopState {
	var st *loopState
	if at.used < len(at.states) {
		st = at.states[at.used]
	} else {
		st = &loopState{}
		at.states = append(at.states, st)
	}
	at.used++
	st.loop = loop
	st.samples = 0
	if cap(st.trackers) < threads {
		st.trackers = make([]*rcd.CPTracker, threads)
	} else {
		st.trackers = st.trackers[:threads]
	}
	return st
}

var attrPool parsim.Pool[*attrState]

// cmpString is a branch-light strings.Compare for the report sorts.
func cmpString(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cpPool recycles conflict-period trackers across Analyze calls. Analyze
// builds one tracker per thread per sampled loop context; a sweep analyzing
// hundreds of profiles against the same cache geometry reuses the same
// trackers (and their per-set arrays and histograms) instead of
// reallocating them.
// Every tracker taken from the pool is Reset before use.
var cpPool parsim.Pool[*rcd.CPTracker]

// graphPool recycles CFG graphs (and their loop-analysis scratch) across
// Analyze calls. Rebuild reconstructs a pooled graph for each new binary in
// place; the Forest and Blocks of a pooled graph are only used within one
// Analyze call, and the reports copy out everything they keep (names are
// strings), so returning the graph to the pool invalidates nothing.
var graphPool parsim.Pool[*cfg.Graph]

func getCP(sets int) *rcd.CPTracker {
	cp := cpPool.Get()
	if cp == nil {
		return rcd.NewCP(sets)
	}
	cp.Reset(sets)
	return cp
}

// Analyze is CCProf's offline phase: it recovers the loop forest from the
// binary, attributes every sample to its innermost loop (code-centric) and
// covering allocation (data-centric), approximates RCD distributions from
// the sampled miss sequences, and classifies each loop.
//
// The per-sample work runs through the same streamState machine that backs
// the online StreamAnalyzer (see stream.go): Analyze is the buffered replay
// of that machine over Profile.Samples, so streaming and in-memory analyses
// of the same sample sequences are identical by construction.
func Analyze(prof *Profile, bin *objfile.Binary, arena *alloc.Arena, opts AnalyzeOptions) (*Analysis, error) {
	if prof == nil {
		return nil, ErrNilProfile
	}
	if bin == nil {
		return nil, ErrNilBinary
	}
	sp := obs.Default.Span("analyze")
	defer sp.End()
	obs.Default.Counter("analyze.runs").Inc()

	ss, err := newStreamState(bin, arena, prof.Geom, len(prof.Samples), prof.Burst, opts)
	if err != nil {
		return nil, err
	}
	for t, samples := range prof.Samples {
		for _, sm := range samples {
			ss.sample(t, sm)
		}
	}
	return ss.finish(prof.Workload), nil
}

// sortLoops orders loop reports by decreasing sample count, ties broken
// by name.
func sortLoops(loops []LoopReport) {
	slices.SortFunc(loops, func(a, b LoopReport) int {
		if a.Samples != b.Samples {
			return b.Samples - a.Samples
		}
		return cmpString(a.Loop, b.Loop)
	})
}

// buildFuncReports renders the function-level rollup, sorted by decreasing
// samples. The per-function cf reuses the global short-RCD attribution of
// each sample (the sampled sequence is one stream).
func buildFuncReports(funcSamples, funcShort map[string]int, total int) []FuncReport {
	funcs := make([]FuncReport, 0, len(funcSamples))
	for name, n := range funcSamples {
		funcs = append(funcs, FuncReport{
			Func:         name,
			Samples:      n,
			Contribution: float64(n) / float64(total),
			CF:           float64(funcShort[name]) / float64(n),
		})
	}
	slices.SortFunc(funcs, func(a, b FuncReport) int {
		if a.Samples != b.Samples {
			return b.Samples - a.Samples
		}
		return cmpString(a.Func, b.Func)
	})
	return funcs
}

// buildDataReports renders data-centric attribution, sorted by decreasing
// samples.
func buildDataReports(dataSamples, dataShort map[string]int, total int) []DataReport {
	data := make([]DataReport, 0, len(dataSamples))
	for name, n := range dataSamples {
		data = append(data, DataReport{
			Name:         name,
			Samples:      n,
			ShortRCD:     dataShort[name],
			Contribution: float64(n) / float64(total),
		})
	}
	slices.SortFunc(data, func(a, b DataReport) int {
		if a.Samples != b.Samples {
			return b.Samples - a.Samples
		}
		return cmpString(a.Name, b.Name)
	})
	return data
}

// pooledMetrics aggregates the per-thread trackers of one context.
type pooledMetrics struct {
	cf       float64
	setsUsed int
	meanCP   float64
	victims  []int
	cdf      []CDFPoint
}

// analyzeScratch is poolTrackers' reusable aggregation state: a per-set
// miss accumulator and a dense RCD histogram. One scratch is borrowed per
// context and returned immediately, so an Analyze call cycles a single
// scratch through all its contexts.
type analyzeScratch struct {
	missBySet []uint64
	hist      stats.IntHist
	vals      []int // reused value buffer for CDF rendering
}

var scratchPool parsim.Pool[*analyzeScratch]

func poolTrackers(cps []*rcd.CPTracker, threshold int) pooledMetrics {
	var pm pooledMetrics
	if len(cps) == 0 {
		return pm
	}
	sets := cps[0].RCD().Sets()
	sc := scratchPool.Get()
	if sc == nil {
		sc = &analyzeScratch{}
	}
	defer scratchPool.Put(sc)
	if cap(sc.missBySet) < sets {
		sc.missBySet = make([]uint64, sets)
	}
	missBySet := sc.missBySet[:sets]
	for s := range missBySet {
		missBySet[s] = 0
	}
	sc.hist.Reset()

	var total, short uint64
	var cpSum float64
	var cpRuns uint64
	for _, cp := range cps {
		cp.Flush()
		tr := cp.RCD()
		total += tr.Total()
		short += tr.ShortCount(threshold)
		for s := 0; s < sets; s++ {
			missBySet[s] += tr.SetMisses(s)
		}
		sc.hist.Merge(tr.Hist())
		if p := cp.Periods(); p.Total() > 0 {
			cpSum += cp.MeanPeriod() * float64(p.Total())
			cpRuns += p.Total()
		}
	}
	if total == 0 {
		return pm
	}
	pm.cf = float64(short) / float64(total)
	// Count victims first, then fill an exactly-sized list: the list is
	// retained by the report, so sizing it up front replaces the growth
	// reallocations of repeated append.
	cut := 2 * float64(total) / float64(sets)
	nvict := 0
	for _, m := range missBySet {
		if m > 0 {
			pm.setsUsed++
		}
		if float64(m) > cut {
			nvict++
		}
	}
	if nvict > 0 {
		pm.victims = make([]int, 0, nvict)
		for s, m := range missBySet {
			if float64(m) > cut {
				pm.victims = append(pm.victims, s)
			}
		}
	}
	if cpRuns > 0 {
		pm.meanCP = cpSum / float64(cpRuns)
	}
	sc.vals = cdfValues(&sc.hist, sc.vals[:0])
	pm.cdf = cdfPoints(&sc.hist, sc.vals)
	return pm
}

// cdfValues fills a reused buffer with a histogram's sorted values.
func cdfValues(h *stats.IntHist, dst []int) []int {
	return h.AppendValues(dst)
}

// cdfPoints renders a histogram's CDF directly into report points. vs must
// be the histogram's sorted values (see cdfValues).
func cdfPoints(h *stats.IntHist, vs []int) []CDFPoint {
	total := h.Total()
	if total == 0 {
		return nil
	}
	out := make([]CDFPoint, 0, len(vs))
	var run uint64
	for _, v := range vs {
		run += h.Count(v)
		out = append(out, CDFPoint{RCD: v, Cum: float64(run) / float64(total)})
	}
	return out
}
