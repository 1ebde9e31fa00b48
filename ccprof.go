// Package ccprof is a pure-Go reproduction of CCProf, the lightweight
// cache-conflict profiler of Roy, Song, Krishnamoorthy and Liu,
// "Lightweight Detection of Cache Conflicts" (CGO 2018).
//
// CCProf detects conflict misses in set-associative caches by sampling
// L1-miss addresses, attributing each sampled miss to its cache set, and
// computing the Re-Conflict Distance (RCD) — the distance in miss events
// between consecutive misses on the same set. A large fraction of misses at
// short RCD marks a loop as conflict-ridden; a simple logistic regression
// turns that fraction (the contribution factor) into a binary verdict, and
// code-/data-centric attribution names the loops and data structures to
// pad.
//
// This package is the public facade. A typical session:
//
//	cs, _ := ccprof.Workload("adi")                     // a paper case study
//	prof, _ := ccprof.ProfileProgram(cs.Original, ccprof.ProfileOptions{})
//	an, _ := ccprof.Analyze(prof, cs.Original.Binary, cs.Original.Arena, ccprof.AnalyzeOptions{})
//	ccprof.WriteReport(os.Stdout, an)
//
// Real hardware is replaced by simulation substrates (see DESIGN.md): a
// simulated PEBS sampler over a cycle-faithful L1 model, a trace-driven
// multi-level cache simulator for ground truth, and synthetic binaries from
// which the analyzer recovers loop nests via interval analysis.
package ccprof

import (
	"io"

	"repro/internal/advisor"
	"repro/internal/alloc"
	"repro/internal/analytic"
	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/parsim"
	"repro/internal/pmu"
	"repro/internal/staticconf"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Re-exported core types. These are aliases, so values flow freely between
// the facade and the internal packages.
type (
	// Program is a runnable kernel: binary + allocation arena + run
	// function.
	Program = workloads.Program
	// CaseStudy pairs the original and optimized variants of a paper
	// case study.
	CaseStudy = workloads.CaseStudy
	// Profile is the output of the online sampling phase.
	Profile = core.Profile
	// ProfileOptions configures online profiling.
	ProfileOptions = core.ProfileOptions
	// Analysis is the offline analyzer's report.
	Analysis = core.Analysis
	// AnalyzeOptions configures offline analysis.
	AnalyzeOptions = core.AnalyzeOptions
	// LoopReport is one loop's row in the analysis.
	LoopReport = core.LoopReport
	// DataReport is one data structure's row in the analysis.
	DataReport = core.DataReport
	// OverheadModel converts sample counts into runtime-overhead factors.
	OverheadModel = core.OverheadModel
	// Machine describes an evaluation platform's cache hierarchy.
	Machine = mem.Machine
	// Geometry describes one cache level.
	Geometry = mem.Geometry
	// Sample is one PEBS-style address sample.
	Sample = pmu.Sample
	// Ref is one memory reference of a workload trace.
	Ref = trace.Ref
	// Sink consumes a reference stream, one struct-of-arrays block at a
	// time.
	Sink = trace.Sink
	// Emitter is the per-thread producer a custom kernel writes its
	// references into (see NewProgram).
	Emitter = trace.Emitter
	// Binary is a synthetic executable.
	Binary = objfile.Binary
	// BinaryBuilder assembles synthetic executables for custom kernels.
	BinaryBuilder = objfile.Builder
	// Arena is the simulated heap for data-centric attribution.
	Arena = alloc.Arena
	// Logistic is the conflict classifier model.
	Logistic = classify.Logistic
	// AccessSpec declares a loop's affine accesses for static conflict
	// analysis (no execution needed).
	AccessSpec = staticconf.Spec
	// Access is one affine access stream within an AccessSpec.
	Access = staticconf.Access
	// AccessDim is one loop dimension of an Access (stride and trip).
	AccessDim = staticconf.Dim
	// StaticOptions configures the static analyzer.
	StaticOptions = staticconf.Options
	// StaticReport is the static analyzer's verdict for one spec.
	StaticReport = staticconf.Report
	// AnalyticOptions configures the closed-form analytic conflict model.
	AnalyticOptions = analytic.Options
	// AnalyticReport is the analytic model's verdict for one spec.
	AnalyticReport = analytic.Report
	// TierPolicy selects the static pruning tiers of the advisor cascade.
	TierPolicy = advisor.TierPolicy
	// StreamAnalyzer consumes PMU samples online and produces the same
	// Analysis as the buffered pipeline in O(contexts x sets) memory.
	StreamAnalyzer = core.StreamAnalyzer
	// TraceProfileOptions configures sharded profiling of a recorded
	// framed trace (ProfileTrace).
	TraceProfileOptions = core.TraceProfileOptions
	// TraceWriter encodes a reference stream into the framed binary trace
	// format (CCTB): independently decodable, seekable frames.
	TraceWriter = trace.TraceWriter
	// TraceReader decodes a framed binary trace block by block.
	TraceReader = trace.TraceReader
	// StreamPos is a frame-aligned resume point inside a framed trace.
	StreamPos = trace.StreamPos
)

// ProfileProgram runs the workload under the simulated PMU (the online
// phase). The zero options profile a sequential run at the recommended
// mean sampling period of 1212.
func ProfileProgram(p *Program, opts ProfileOptions) (*Profile, error) {
	return core.ProfileProgram(p, opts)
}

// Analyze runs the offline phase: loop recovery, RCD approximation,
// conflict classification, and code-/data-centric attribution.
func Analyze(prof *Profile, bin *Binary, arena *Arena, opts AnalyzeOptions) (*Analysis, error) {
	return core.Analyze(prof, bin, arena, opts)
}

// ProfileAndAnalyze chains both phases with the given options.
func ProfileAndAnalyze(p *Program, popts ProfileOptions, aopts AnalyzeOptions) (*Analysis, error) {
	prof, err := core.ProfileProgram(p, popts)
	if err != nil {
		return nil, err
	}
	return core.Analyze(prof, p.Binary, p.Arena, aopts)
}

// ProfileStream fuses both phases into one streaming pass: every sample is
// consumed by the online analyzer the moment the simulated PMU raises it,
// nothing is buffered, and memory stays O(contexts x sets) regardless of
// how long the workload runs. The Analysis is byte-identical to the
// two-phase ProfileProgram+Analyze pipeline for the same options and seed.
// The returned Profile carries the usual counters but no sample buffers
// (SampleCount still reports the online-consumed total).
func ProfileStream(p *Program, popts ProfileOptions, aopts AnalyzeOptions) (*Profile, *Analysis, error) {
	return core.ProfileStream(p, popts, aopts)
}

// NewStreamAnalyzer builds a standalone online analyzer for callers that
// drive their own samplers: wire HandlerFor(tid) into a pmu sampler per
// thread, then Finish to obtain the Analysis. ProfileStream is the packaged
// version of this pattern.
func NewStreamAnalyzer(bin *Binary, arena *Arena, g Geometry, threads, burst int, opts AnalyzeOptions) (*StreamAnalyzer, error) {
	if g.Sets == 0 {
		g = mem.L1Default()
	}
	return core.NewStreamAnalyzer(bin, arena, g, threads, burst, opts)
}

// ProfileTrace profiles a recorded framed trace (see NewTraceWriter)
// instead of a live workload, sharded over frame-aligned segments that run
// in parallel on the sweep executor and — with a parsim checkpoint — resume
// after interruption without re-profiling completed segments. open must
// return a fresh reader of the trace on each call.
func ProfileTrace(name string, open func() (io.ReadSeeker, error), opts TraceProfileOptions) (*Profile, error) {
	return core.ProfileTrace(name, open, opts)
}

// NewTraceWriter starts a framed binary trace (format CCTB) on w with the
// given references-per-frame (0 selects trace.DefaultBlock). Frames are
// independently decodable, so the trace supports O(1) seeking to any frame
// boundary and checkpointed resume. Close flushes the final partial frame.
func NewTraceWriter(w io.Writer, refsPerFrame int) *TraceWriter {
	return trace.NewTraceWriter(w, refsPerFrame)
}

// NewTraceReader opens a framed binary trace for block-by-block iteration;
// see TraceReader.Next, Replay, and ScanIndex.
func NewTraceReader(r io.Reader) (*TraceReader, error) { return trace.NewTraceReader(r) }

// ResumeTraceReader reopens a framed trace at a position previously
// captured with TraceReader.Pos — the primitive behind checkpointed trace
// profiling.
func ResumeTraceReader(rs io.ReadSeeker, pos StreamPos) (*TraceReader, error) {
	return trace.ResumeTraceReader(rs, pos)
}

// Workload builds a named paper case study at its default scale; see
// WorkloadNames for the registry.
func Workload(name string) (*CaseStudy, error) { return workloads.Get(name) }

// WorkloadNames lists the registered case studies.
func WorkloadNames() []string { return workloads.Names() }

// RodiniaSuite returns the 18 Rodinia-style kernels of the Figure 7 sweep.
func RodiniaSuite() []*Program { return workloads.RodiniaSuite() }

// NewProgram assembles a custom Program: run emits thread tid's share of
// the work, one sink.Ref call per memory access. See
// examples/custom-workload.
func NewProgram(name string, bin *Binary, ar *Arena,
	run func(tid, threads int, sink *Emitter)) *Program {
	return workloads.NewProgram(name, bin, ar, run)
}

// NewBinaryBuilder starts a synthetic binary for a custom kernel.
func NewBinaryBuilder(name string) *BinaryBuilder { return objfile.NewBuilder(name) }

// NewArena returns an empty simulated heap.
func NewArena() *Arena { return alloc.NewArena() }

// Broadwell and Skylake return the paper's two evaluation machines.
func Broadwell() Machine { return mem.Broadwell() }

// Skylake returns the paper's Skylake configuration.
func Skylake() Machine { return mem.Skylake() }

// L1Default returns the 32KiB 8-way, 64-set L1 geometry used throughout
// the paper's evaluation.
func L1Default() Geometry { return mem.L1Default() }

// DefaultModel returns the built-in conflict classifier.
func DefaultModel() Logistic { return core.DefaultModel() }

// DefaultOverheadModel returns the calibrated overhead model.
func DefaultOverheadModel() OverheadModel { return core.DefaultOverheadModel() }

// DefaultPeriod is the recommended mean sampling period (paper §5.3).
const DefaultPeriod = pmu.DefaultPeriod

// RCDThreshold is the default short-RCD threshold T.
const RCDThreshold = 8

// WriteReport renders an analysis as text: the program verdict, the
// per-loop table (code-centric attribution) and the per-data-structure
// table (data-centric attribution). ccprofd job artifacts use the same
// renderer (core.WriteReport), so CLI and service reports are
// byte-identical for the same analysis.
func WriteReport(w io.Writer, an *Analysis) error {
	return core.WriteReport(w, an)
}

// Simulate runs a program through a full multi-level cache simulation on
// the given machine with the given thread count (capped at the machine's
// thread count) and returns the populated system — the ground-truth path
// used by the Table 3 experiments.
func Simulate(p *Program, m Machine, threads int) *cache.System {
	if threads < 1 || threads > m.Threads {
		threads = m.Threads
	}
	sys := cache.NewSystem(m, threads)
	streams := trace.NewThreadedRecorder(threads)
	for tid := 0; tid < threads; tid++ {
		p.RunThread(tid, threads, streams.Thread(tid))
	}
	// Interleave per-thread streams into the shared hierarchy in
	// fixed-size chunks, approximating concurrent execution.
	sys.Interleave(streams.Streams, 64)
	return sys
}

// RecommendPad searches candidate row pads for a rebuildable kernel and
// returns the cheapest pad removing the conflict signature — the
// mechanical version of the paper's §6 optimization step. Candidates are
// evaluated in parallel on the sweep executor (see SetParallelism); the
// recommendation is byte-identical at any worker count. See
// internal/advisor for options and examples/advisor for a walkthrough.
func RecommendPad(build func(pad uint64) *Program, opts advisor.Options) (advisor.Result, error) {
	return advisor.RecommendPad(build, opts)
}

// SetParallelism sets the process-wide worker count of the deterministic
// sweep executor that runs the advisor's pad candidates and the
// sweep-style experiments (cmd/ccprof and cmd/experiments expose it as
// -j). n <= 0 restores the GOMAXPROCS default. Worker count never changes
// results: every sweep reassembles its tasks in canonical order and every
// task derives its RNG seed from the root seed and a stable task key.
func SetParallelism(n int) { parsim.SetDefaultWorkers(n) }

// Parallelism returns the resolved sweep-executor worker count.
func Parallelism() int { return parsim.DefaultWorkers() }

// DeriveSeed derives a deterministic per-task RNG seed from a root seed
// and a stable task key (seed = root ⊕ FNV-1a(key)) — the scheme that
// keeps parallel sweeps reproducible. Custom sweeps over ccprof APIs
// should seed their tasks the same way.
func DeriveSeed(root int64, key string) int64 { return parsim.DeriveSeed(root, key) }

// Metrics returns the process-wide observability registry that the
// profiler, the simulators, and the sweep executor report into: counters
// (refs streamed, hits/misses per level, samples raised/dropped), gauges,
// log2 histograms (per-set miss distributions), and phase timers (profile,
// analyze, simulate, report). Snapshot it after a run — or serve it live
// with ServeMetrics — to see where a profiling session spent its work.
func Metrics() *obs.Registry { return obs.Default }

// ServeMetrics exposes the registry over HTTP on addr: /metrics (snapshot
// JSON), /debug/vars (expvar), and /debug/pprof. It returns the bound
// address (useful with ":0") and a shutdown function. cmd/ccprof and
// cmd/experiments expose it as -metrics-addr.
func ServeMetrics(addr string) (string, func() error, error) { return obs.Default.Serve(addr) }

// ProfileL2 runs the physically-indexed L2 profiling extension (the
// paper's footnote-1 future work): L2-miss address sampling, translated
// through a simulated page table, analyzed over physical set indices.
func ProfileL2(p *Program, opts core.L2ProfileOptions) (*core.L2Analysis, error) {
	return core.ProfileL2(p, opts)
}

// AnalyzeStatic predicts a kernel's cache-set conflicts from its affine
// access spec alone — per-access set footprints, window demand, and a
// conflict verdict — without running or simulating the kernel. The zero
// geometry selects L1Default; see internal/staticconf for the model.
func AnalyzeStatic(spec *AccessSpec, g Geometry, opts StaticOptions) (*StaticReport, error) {
	if g.Sets == 0 {
		g = mem.L1Default()
	}
	return staticconf.Analyze(spec, g, opts)
}

// AnalyzeAnalytic classifies a kernel's affine access spec with the
// closed-form tier-0 conflict model: predicted footprint, per-set
// demand, reuse profile, contribution factor, and verdict, all from
// pure arithmetic — no reference replayed, no window enumerated. It is
// the cheapest tier of the advisor cascade; see internal/analytic for
// the lattice model. The zero geometry selects L1Default.
func AnalyzeAnalytic(spec *AccessSpec, g Geometry, opts AnalyticOptions) (*AnalyticReport, error) {
	if g.Sets == 0 {
		g = mem.L1Default()
	}
	return analytic.Analyze(spec, g, opts)
}

// Cascade returns the full three-tier advisor policy — the analytic
// model, then the enumerating static analyzer, then exact simulation of
// the surviving candidates — for Options.Tiers of RecommendPad.
func Cascade() TierPolicy { return advisor.Cascade() }

// MinimalPad returns the smallest row pad the static analyzer declares
// conflict-free, scanning pads in Quantum steps — the closed-form
// companion to RecommendPad, which the advisor's StaticFirst mode uses to
// prune its simulation sweep.
func MinimalPad(build func(pad uint64) *AccessSpec, g Geometry, opts staticconf.PadOptions) (*staticconf.PadResult, error) {
	if g.Sets == 0 {
		g = mem.L1Default()
	}
	return staticconf.MinimalPad(build, g, opts)
}
