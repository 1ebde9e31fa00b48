package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/cfg"
	"repro/internal/mem"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/parsim"
	"repro/internal/pmu"
	"repro/internal/rcd"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Streaming analysis. The offline analyzer's per-sample work — RCD/CP
// observation, burst-boundary sequence breaks, code/data/function
// attribution — is a state machine over one sample at a time; nothing in it
// needs the sample vector materialized. streamState is that machine,
// extracted so the buffered path (Analyze iterating Profile.Samples) and
// the online path (StreamAnalyzer fed by pmu sampler Handlers while the
// workload runs) execute the exact same code on the exact same per-thread
// sample sequences. Equivalence between the two modes is structural, not
// coincidental.
//
// Memory is O(contexts x threads x sets): the whole-program and per-loop
// CP trackers (per-set last-miss state plus fixed-bucket histograms) and
// the attribution count slices, sized by the binary's instructions, loops
// and functions and the arena's blocks. Nothing grows with the number of
// samples, so an arbitrarily long trace — or a live stream — analyzes at
// fixed memory.

// streamState is the analyzer's incremental state: everything Analyze used
// to keep across its per-sample loop, owned by one analysis (buffered or
// streaming) from newStreamState to finish.
type streamState struct {
	o       AnalyzeOptions
	geom    mem.Geometry
	burst   int
	threads int

	bin    *objfile.Binary
	base   uint64 // address of the binary's first instruction
	arena  *alloc.Arena
	graph  *cfg.Graph
	forest *cfg.Forest

	at      *attrState
	globals []*rcd.CPTracker
	si      []int // per-thread sample index, the burst-boundary phase
}

// newStreamState recovers the loop forest from the binary, builds the
// per-instruction attribution table and prepares pooled attribution state
// for threads sample streams. opts are resolved with withDefaults; burst <
// 2 disables burst-boundary breaks.
func newStreamState(bin *objfile.Binary, arena *alloc.Arena, geom mem.Geometry, threads, burst int, opts AnalyzeOptions) (*streamState, error) {
	o := opts.withDefaults()
	graph := graphPool.Get()
	if graph == nil {
		graph = new(cfg.Graph)
	}
	if err := graph.Rebuild(bin); err != nil {
		graphPool.Put(graph)
		return nil, fmt.Errorf("core: recovering CFG: %w", err)
	}
	forest := graph.FindLoops()
	at := attrPool.Get()
	if at == nil {
		at = &attrState{}
	}
	// Rebuild validated the binary: its instructions are contiguous at
	// InstrSize spacing, so slot i holds the instruction at base+i*InstrSize.
	base := bin.Instrs[0].Addr
	at.code = zeroed(at.code, len(bin.Instrs))
	for i := range at.code {
		addr := base + uint64(i)*objfile.InstrSize
		at.code[i] = codeSlot{fn: int32(bin.FuncIndex(addr)), loop: forest.InnermostAt(addr)}
	}
	at.loops = zeroed(at.loops, len(forest.Loops))
	at.funcSamples = zeroed(at.funcSamples, len(bin.Funcs))
	at.funcShort = zeroed(at.funcShort, len(bin.Funcs))
	var blocks int
	if arena != nil {
		blocks = len(arena.Blocks())
	}
	at.dataSamples = zeroed(at.dataSamples, blocks)
	at.dataShort = zeroed(at.dataShort, blocks)
	if cap(at.globals) < threads {
		at.globals = make([]*rcd.CPTracker, threads)
	}
	globals := at.globals[:threads]
	at.globals = globals
	for t := range globals {
		globals[t] = getCP(geom.Sets)
	}
	return &streamState{
		o:       o,
		geom:    geom,
		burst:   burst,
		threads: threads,
		bin:     bin,
		base:    base,
		arena:   arena,
		graph:   graph,
		forest:  forest,
		at:      at,
		globals: globals,
		si:      make([]int, threads),
	}, nil
}

// slot returns the instruction-table entry of ip, or nil when ip is not
// an instruction address: outside the text, or between instructions
// (traces ingested from perf script JSONL carry arbitrary IPs).
func (ss *streamState) slot(ip uint64) *codeSlot {
	if off := ip - ss.base; off%objfile.InstrSize == 0 && off/objfile.InstrSize < uint64(len(ss.at.code)) {
		return &ss.at.code[off/objfile.InstrSize]
	}
	return nil
}

// code returns the Binary.Funcs index (-1 for none) and innermost loop
// (nil for none) of ip, whose table entry is c: FuncIndex and
// InnermostAt, asked directly only when ip has no entry.
func (ss *streamState) code(c *codeSlot, ip uint64) (int, *cfg.Loop) {
	if c != nil {
		return int(c.fn), c.loop
	}
	return ss.bin.FuncIndex(ip), ss.forest.InnermostAt(ip)
}

// block returns the index of the arena block containing addr, or -1,
// trying first the block of the latest sample of c's instruction (when
// ip has an entry). Blocks never overlap, so a block containing addr is
// the one Arena.Find would return.
func block(blocks []alloc.Block, c *codeSlot, addr uint64) int {
	if c != nil {
		if g := int(c.block); g < len(blocks) && blocks[g].Contains(addr) {
			return g
		}
	}
	b := blockIndex(blocks, addr)
	if c != nil && b >= 0 {
		c.block = int32(b)
	}
	return b
}

// blockIndex returns the index of the arena block containing addr, or -1,
// by Arena.Find's rule: the first block ending past addr, if it contains
// addr.
func blockIndex(blocks []alloc.Block, addr uint64) int {
	i := sort.Search(len(blocks), func(i int) bool { return blocks[i].End() > addr })
	if i < len(blocks) && blocks[i].Contains(addr) {
		return i
	}
	return -1
}

// sample feeds one sample of thread t's stream through the analyzer.
// Samples of one thread must arrive in stream order; threads may
// interleave arbitrarily (see StreamAnalyzer for why that cannot change
// the result). Not safe for concurrent use — callers serialize.
func (ss *streamState) sample(t int, sm pmu.Sample) {
	at := ss.at
	// Bursty sampling: only within-burst sample distances are exact miss
	// distances, so break every tracker's sequence at each burst boundary.
	// The boundary is a function of the thread's own sample index, so it
	// falls on the same samples however threads interleave.
	if ss.burst > 1 && ss.si[t]%ss.burst == 0 {
		ss.globals[t].BreakSequence()
		for _, st := range at.active {
			st.trackers[t].BreakSequence()
		}
	}
	ss.si[t]++
	set := ss.geom.Set(sm.Addr)
	d := ss.globals[t].Observe(set)
	short := d != rcd.NoPrior && d <= ss.o.Threshold

	// The instruction's table entry (nil when the IP has none) serves the
	// data, function and loop lookups below.
	c := ss.slot(sm.IP)

	// Data-centric attribution. The arena may still be growing while a
	// streamed workload runs, so the counts grow with it.
	if ss.arena != nil {
		blocks := ss.arena.Blocks()
		if b := block(blocks, c, sm.Addr); b >= 0 {
			if b >= len(at.dataSamples) {
				at.dataSamples = append(at.dataSamples, make([]int, len(blocks)-len(at.dataSamples))...)
				at.dataShort = append(at.dataShort, make([]int, len(blocks)-len(at.dataShort))...)
			}
			at.dataSamples[b]++
			if short {
				at.dataShort[b]++
			}
		}
	}

	// Function-level rollup.
	fn, loop := ss.code(c, sm.IP)
	if fn >= 0 {
		at.funcSamples[fn]++
		if short {
			at.funcShort[fn]++
		}
	}

	// Code-centric attribution.
	if loop == nil {
		at.unattributed++
		return
	}
	st := at.loops[loop.ID]
	if st == nil {
		st = at.takeLoopState(loop, ss.threads)
		for i := range st.trackers {
			st.trackers[i] = getCP(ss.geom.Sets)
		}
		at.loops[loop.ID] = st
		at.active = append(at.active, st)
	}
	st.samples++
	st.trackers[t].Observe(set)
}

// totalSamples returns the number of samples fed so far.
func (ss *streamState) totalSamples() int {
	n := 0
	for _, c := range ss.si {
		n += c
	}
	return n
}

// finish aggregates the accumulated state into an Analysis — the former
// report-building tail of Analyze — and releases every pooled resource. The
// streamState must not be used afterwards.
func (ss *streamState) finish(workload string) *Analysis {
	defer ss.release()
	o := ss.o
	at := ss.at
	an := &Analysis{
		Workload:     workload,
		Threshold:    o.Threshold,
		TotalSamples: ss.totalSamples(),
		Unattributed: at.unattributed,
	}

	// Whole-program metrics: pool per-thread trackers.
	pooledGlobal := poolTrackers(ss.globals, o.Threshold)
	an.CF = pooledGlobal.cf
	an.CDF = pooledGlobal.cdf
	an.Conflict = an.TotalSamples >= o.MinLoopSamples && o.Model.Predict(an.CF)

	// Per-loop reports.
	an.Loops = make([]LoopReport, 0, len(at.active))
	for _, st := range at.active {
		pooled := poolTrackers(st.trackers, o.Threshold)
		rep := LoopReport{
			Loop:         st.loop.Name(),
			Depth:        st.loop.Depth,
			Samples:      st.samples,
			Contribution: float64(st.samples) / float64(an.TotalSamples),
			SetsUsed:     pooled.setsUsed,
			CF:           pooled.cf,
			MeanCP:       pooled.meanCP,
			VictimSets:   pooled.victims,
			CDF:          pooled.cdf,
		}
		rep.Conflict = st.samples >= o.MinLoopSamples && o.Model.Predict(rep.CF)
		an.Loops = append(an.Loops, rep)
		if len(st.loop.Children) == 0 {
			an.ActiveInnerLoops++
		}
	}
	sortLoops(an.Loops)

	// The reports retain nothing the trackers own (loop names are strings,
	// CDFs and victim lists are freshly built), so every tracker goes back
	// to the pool for the next analysis.
	for _, cp := range ss.globals {
		cpPool.Put(cp)
	}
	for _, st := range at.active {
		for _, cp := range st.trackers {
			cpPool.Put(cp)
		}
	}

	// Fold the index-keyed counts by name: distinct functions or blocks
	// may share one.
	funcSamples, funcShort := make(map[string]int), make(map[string]int)
	for k, n := range at.funcSamples {
		if n > 0 {
			name := ss.bin.Funcs[k].Name
			funcSamples[name] += n
			funcShort[name] += at.funcShort[k]
		}
	}
	dataSamples, dataShort := make(map[string]int), make(map[string]int)
	if ss.arena != nil {
		blocks := ss.arena.Blocks()
		for b, n := range at.dataSamples {
			if n > 0 {
				dataSamples[blocks[b].Name] += n
				dataShort[blocks[b].Name] += at.dataShort[b]
			}
		}
	}
	an.Funcs = buildFuncReports(funcSamples, funcShort, an.TotalSamples)
	an.Data = buildDataReports(dataSamples, dataShort, an.TotalSamples)
	return an
}

// release returns the pooled graph and attribution state.
func (ss *streamState) release() {
	graphPool.Put(ss.graph)
	ss.graph, ss.forest = nil, nil
	ss.at.clear()
	attrPool.Put(ss.at)
	ss.at = nil
	ss.globals = nil
}

// StreamAnalyzer is the online analyzer: per-thread pmu sampler Handlers
// feed it samples as the workload runs, and Finish produces the same
// Analysis the buffered ProfileProgram+Analyze pipeline would — without any
// sample vector ever existing.
//
// Concurrent threads interleave their Sample calls under one mutex, in a
// scheduling-dependent order; the result is still deterministic because
// every effect of a sample commutes across threads. Trackers are per
// (context, thread): slot [t] only ever receives thread t's observations
// and burst breaks, both ordered by thread t's own sample index, so its
// operation sequence is identical however arrivals interleave (a loop
// context created "late" by another thread's sample misses only breaks that
// precede slot [t]'s first observation, which are no-ops on fresh
// trackers). Everything else — sample and attribution counts — is
// commutative sums, and the report stage sorts.
type StreamAnalyzer struct {
	mu sync.Mutex
	ss *streamState
}

// NewStreamAnalyzer prepares an online analysis of threads concurrent
// sample streams against the given binary, arena and cache geometry. burst
// must match the profiler's burst length (<= 1 for single-event sampling).
func NewStreamAnalyzer(bin *objfile.Binary, arena *alloc.Arena, geom mem.Geometry, threads, burst int, opts AnalyzeOptions) (*StreamAnalyzer, error) {
	if bin == nil {
		return nil, ErrNilBinary
	}
	ss, err := newStreamState(bin, arena, geom, threads, burst, opts)
	if err != nil {
		return nil, err
	}
	return &StreamAnalyzer{ss: ss}, nil
}

// Sample feeds one sample of thread tid's stream. Safe for concurrent use
// by different threads; samples of one thread must arrive in stream order.
func (sa *StreamAnalyzer) Sample(tid int, sm pmu.Sample) {
	sa.mu.Lock()
	sa.ss.sample(tid, sm)
	sa.mu.Unlock()
}

// HandlerFor returns a pmu.Sampler Handler delivering thread tid's samples
// to the analyzer.
func (sa *StreamAnalyzer) HandlerFor(tid int) func(pmu.Sample) {
	return func(sm pmu.Sample) { sa.Sample(tid, sm) }
}

// TotalSamples returns the number of samples consumed so far.
func (sa *StreamAnalyzer) TotalSamples() int {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.ss.totalSamples()
}

// Finish completes the analysis and releases the analyzer's pooled state.
// The analyzer must not be used afterwards.
func (sa *StreamAnalyzer) Finish(workload string) *Analysis {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	an := sa.ss.finish(workload)
	sa.ss = nil
	return an
}

// ProfileStream runs the workload under the simulated PMU with every
// sampler delivering straight into an online StreamAnalyzer — the fused,
// bounded-memory equivalent of ProfileProgram followed by Analyze. The
// returned Profile carries the run's counters and fault ledger but no
// sample vectors (Samples entries stay nil; SampleCount reports the
// streamed count); the Analysis is byte-identical to what the buffered
// pipeline produces for the same options and seed, including at any thread
// count. Observability counters ("profile.runs", "analyze.runs", pmu.*,
// trace.*) advance exactly as in the two-phase pipeline.
func ProfileStream(p *workloads.Program, opts ProfileOptions, aopts AnalyzeOptions) (*Profile, *Analysis, error) {
	if p == nil {
		return nil, nil, ErrNilProgram
	}
	o := opts.withDefaults()
	if err := o.Faults.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: fault plan: %w", err)
	}
	if err := (pmu.Config{Geom: o.Geom, Period: o.Period, Burst: o.Burst}).Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: profile config: %w", err)
	}
	burst := o.Burst
	if burst < 1 {
		burst = 1
	}
	sa, err := NewStreamAnalyzer(p.Binary, p.Arena, o.Geom, o.Threads, burst, aopts)
	if err != nil {
		return nil, nil, err
	}

	sp := obs.Default.Span("profile")
	obs.Default.Counter("profile.runs").Inc()
	prof := &Profile{
		Workload:   p.Name,
		Geom:       o.Geom,
		PeriodMean: o.Period.Mean(),
		Burst:      burst,
		Samples:    make([][]pmu.Sample, o.Threads),
	}

	if !o.NoTime {
		start := time.Now()
		for tid := 0; tid < o.Threads; tid++ {
			p.RunThread(tid, o.Threads, trace.Discard)
		}
		prof.BaselineNs = time.Since(start).Nanoseconds()
	}

	// The run mirrors ProfileProgram exactly — pooled per-thread samplers,
	// derived seeds, per-thread fault injectors — except that each sampler
	// gets a Handler, so deliver() hands every sample to the analyzer
	// instead of appending to the sampler's buffer.
	start := time.Now()
	getSampler := func(tid int) *pmu.Sampler {
		seed := o.Seed
		if tid > 0 {
			seed = parsim.DeriveSeed(o.Seed, fmt.Sprintf("thread/%d", tid))
		}
		cfg := pmu.Config{Geom: o.Geom, Period: o.Period, Seed: seed, Burst: o.Burst}
		if o.Faults.Active() {
			cfg.Faults = o.Faults.Injector(fmt.Sprintf("faults/%s/thread/%d", p.Name, tid))
		}
		s := samplerPool.Get()
		if s == nil {
			s = pmu.NewSampler(cfg)
		} else {
			s.Reconfigure(cfg)
		}
		s.Handler = sa.HandlerFor(tid)
		return s
	}
	var samplers []*pmu.Sampler
	if o.Threads == 1 {
		s := getSampler(0)
		one := [1]*pmu.Sampler{s}
		samplers = one[:]
		p.RunThread(0, 1, s)
	} else {
		samplers = make([]*pmu.Sampler, o.Threads)
		var wg sync.WaitGroup
		for tid := 0; tid < o.Threads; tid++ {
			s := getSampler(tid)
			samplers[tid] = s
			wg.Add(1)
			go func(tid int, s *pmu.Sampler) {
				defer wg.Done()
				p.RunThread(tid, o.Threads, s)
			}(tid, s)
		}
		wg.Wait()
	}
	for _, s := range samplers {
		prof.StreamSamples += int(s.SampleCount())
		prof.Events += s.Events
		prof.Refs += s.Refs
		prof.FaultDropped += s.FaultDropped
		prof.FaultTruncated += s.FaultTruncated
		prof.FaultCorrupted += s.FaultCorrupted
		s.ObserveInto(obs.Default)
		s.Handler = nil // drop the analyzer reference before pooling
		samplerPool.Put(s)
	}
	if !o.NoTime {
		prof.ProfiledNs = time.Since(start).Nanoseconds()
	}
	sp.End()

	asp := obs.Default.Span("analyze")
	obs.Default.Counter("analyze.runs").Inc()
	an := sa.Finish(p.Name)
	asp.End()
	return prof, an, nil
}
