// Package workloads implements every kernel the paper evaluates, as
// address-trace generators.
//
// Each workload is a Program: a synthetic binary (so the offline analyzer
// can recover its loop nest), an allocation arena (so data-centric
// attribution can name its arrays), and a run function that walks the same
// loop nest over the same data layout as the original C code, emitting one
// trace.Ref per memory access. Cache-conflict behaviour is a function of
// the address sequence alone, so these generators reproduce the paper's
// conflict phenomena exactly, at laptop scale.
//
// The six case studies (§6) come in Original/Optimized pairs where the
// optimized variant applies the paper's fix — row padding, or loop
// interchange for Kripke. The remaining Rodinia-style kernels exist for the
// Figure 7 sweep and are conflict-free by construction, as the paper found.
package workloads

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/alloc"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/parsim"
	"repro/internal/staticconf"
	"repro/internal/trace"
)

// lazy defers a workload's value-array generation to first use. Program
// construction is on the advisor's per-candidate path — SpecBuilder and
// the static tiers build a program only to read its Spec — and the value
// storage (an O(problem size) deterministic random fill) is by far the
// most expensive part of construction, so the kernels allocate it only
// when a run computes values (see checkThread) or Check sums the results.
func lazy[T any](gen func() T) func() T {
	var (
		once sync.Once
		v    T
	)
	return func() T {
		once.Do(func() { v = gen() })
		return v
	}
}

// Program is one runnable kernel variant.
type Program struct {
	// Name identifies the variant, e.g. "nw" or "nw-padded".
	Name string
	// Binary is the synthetic executable; the analyzer recovers loops
	// from it.
	Binary *objfile.Binary
	// Arena is the allocation log for data-centric attribution.
	Arena *alloc.Arena
	// Spec is the kernel's affine access specification for the static
	// analyzer, covering its dominant array references. Nil means the
	// kernel has no useful affine description (and the static path
	// abstains). Kernels with data-dependent accesses declare affine
	// approximations of their streaming parts.
	Spec *staticconf.Spec

	// runThread emits the references of one thread's partition of the
	// work. Sequential kernels emit everything on thread 0. Kernels call
	// sink.Ref on the concrete emitter, so every reference is a statically
	// bound store into the emitter's current block. compute tells the
	// kernel whether to also compute its real values; the run entries
	// below decide it (see checkThread), never the kernel, and the
	// emitted stream is the same either way.
	runThread func(tid, threads int, compute bool, sink *trace.Emitter)

	// Check, when non-nil, returns a checksum of the kernel's computed
	// output after a sequential Run. The kernels compute their real
	// results (alignment scores, transforms, stencil values) alongside
	// address emission; multi-threaded and address-only runs emit
	// addresses only, so Check is meaningful only after Run (threads == 1).
	Check func() float64
}

// NewProgram assembles a Program from its parts. run receives the thread id
// and thread count and must emit that thread's partition of the work, one
// sink.Ref call per memory access; it is how user code (see
// examples/custom-workload) plugs its own kernels into the profiler. sink
// is the thread's trace.Emitter, the same concrete staging buffer the
// built-in kernels write into.
func NewProgram(name string, bin *objfile.Binary, ar *alloc.Arena,
	run func(tid, threads int, sink *trace.Emitter)) *Program {
	if bin == nil || ar == nil || run == nil {
		panic("workloads: NewProgram with nil component")
	}
	return &Program{Name: name, Binary: bin, Arena: ar,
		runThread: func(tid, threads int, _ bool, sink *trace.Emitter) { run(tid, threads, sink) }}
}

// emitters recycles staging emitters across RunThread and
// RunThreadPipelined calls. An emitter holds only its block buffers (and,
// once it has piped, its channels) between uses; Reset and Pipe discard any
// buffered state, so pooling is invisible to the delivered stream.
var emitters = parsim.Pool[*trace.Emitter]{New: func() *trace.Emitter { return trace.NewEmitter(nil) }}

// Run emits the full sequential reference stream.
func (p *Program) Run(sink trace.Sink) { p.RunThread(0, 1, sink) }

// RunThread emits the reference stream of thread tid out of threads.
// Threads partition the kernel's outermost parallel dimension; a thread
// with no work emits nothing.
//
// The kernel writes into a pooled trace.Emitter, which hands sink the
// stream in fixed-size struct-of-arrays blocks, one RefBlock call each
// (a trace.SinkFunc adapter unrolls them into one call per reference).
// References reach sink a block at a time, after the kernel has moved on,
// never interleaved with its execution. The run's stream statistics merge
// into obs.Default once, at the end.
//
// RunThread stays sequential — sink runs on the kernel's goroutine, between
// two of its references — because some sinks read state the kernel writes:
// ProfileStream's analyzer attributes samples through p.Arena, which a
// custom kernel may grow mid-run, and user SinkFuncs call p.Arena.Find.
// RunThreadPipelined is the overlapped variant for sinks that own all their
// state.
func (p *Program) RunThread(tid, threads int, sink trace.Sink) {
	threads, compute := checkThread(tid, threads)
	e := emitters.Get()
	e.Reset(sink)
	p.runThread(tid, threads, compute, e)
	e.Flush()
	e.ObserveInto(obs.Default)
	e.Reset(nil) // drop the sink reference while pooled
	emitters.Put(e)
}

// RunThreadPipelined delivers to sink exactly the stream RunThread does —
// the same references in the same blocks, the same stream statistics — but
// runs the kernel on a goroutine of its own while sink consumes on the
// caller's, the two joined by a ring of blocks in the pooled emitter's
// buffers (see trace.Emitter.Pipe). On two cores the kernel and the
// simulated PMU overlap, as PEBS hardware records beside the running
// program.
//
// sink runs concurrently with the kernel, so it must not read state the
// kernel writes: not the program's Arena, nor anything a custom kernel
// updates. ProfileProgram's samplers and the advisor's evaluators own all
// their state; ProfileStream and user sinks go through RunThread. A kernel
// panic is re-raised on the caller's goroutine with its value; a sink panic
// stops the kernel at its next block handoff. Either way no goroutine
// outlives the call.
func (p *Program) RunThreadPipelined(tid, threads int, sink trace.Sink) {
	threads, compute := checkThread(tid, threads)
	p.pipe(tid, threads, compute, sink)
}

// RunAddressesPipelined delivers the full sequential stream exactly as
// RunThreadPipelined(0, 1, sink) does — the same references in the same
// blocks — but the kernel skips its numerics: it neither computes nor
// allocates its value arrays, so Check reports nothing about the run. It
// is for consumers of the address sequence alone, like the advisor's
// candidate simulations, where the values are work nobody reads. A run
// that stands for the program itself (Run, a profile) keeps its values. A
// kernel from NewProgram is not told to skip its values, so it runs as
// under RunThreadPipelined.
func (p *Program) RunAddressesPipelined(sink trace.Sink) { p.pipe(0, 1, false, sink) }

// pipe runs thread tid of threads on a goroutine of its own, delivering its
// stream to sink on the caller's.
func (p *Program) pipe(tid, threads int, compute bool, sink trace.Sink) {
	e := emitters.Get()
	e.Pipe(sink, func(e *trace.Emitter) { p.runThread(tid, threads, compute, e) })
	e.ObserveInto(obs.Default)
	e.Reset(nil)
	emitters.Put(e) // only reached once the producer has exited
}

// checkThread validates a thread index and returns the effective thread
// count and whether the run computes the kernel's values: only a
// sequential run does, because the threads of a multi-threaded run would
// share one copy of each value array. Every run entry but
// RunAddressesPipelined, which never computes, takes the decision from
// here.
func checkThread(tid, threads int) (int, bool) {
	if threads < 1 {
		threads = 1
	}
	if tid < 0 || tid >= threads {
		panic(fmt.Sprintf("workloads: thread %d out of range [0,%d)", tid, threads))
	}
	return threads, threads == 1
}

// Record runs the program sequentially into a Recorder and returns it.
func (p *Program) Record() *trace.Recorder {
	var rec trace.Recorder
	p.Run(&rec)
	return &rec
}

// CaseStudy pairs the original and optimized variants of one paper case
// study (Table 2 / Table 3 / Figure 9).
type CaseStudy struct {
	Name      string // paper name, e.g. "NW", "ADI"
	Desc      string // one-line description
	Original  *Program
	Optimized *Program
	// TargetLoop is the source location of the loop the paper analyzes,
	// as reported by code-centric attribution (e.g. "needle.cpp:189").
	TargetLoop string
	// Parallel reports whether the paper runs this case multi-threaded in
	// Table 3 (ADI is "(sequential)").
	Parallel bool
	// ProfilePeriod is the mean sampling period needed to detect this
	// case's conflicts: 171 for most, but workloads whose conflict
	// period is short (HimenoBMT, §6.6) need high-frequency sampling.
	ProfilePeriod uint64
	// PadBuilder rebuilds the kernel with the conflicting array(s)
	// padded by the given byte count, for the advisor's pad search.
	// PadBuilder(0) is layout-identical to Original.
	PadBuilder func(pad uint64) *Program
}

// SpecBuilder derives the static access spec of PadBuilder(pad) without
// constructing the trace generator's value storage; it exists for the
// closed-form pad solver. Returns nil when the case has no PadBuilder or
// its programs carry no spec.
func (cs *CaseStudy) SpecBuilder() func(pad uint64) *staticconf.Spec {
	if cs.PadBuilder == nil {
		return nil
	}
	if p := cs.PadBuilder(0); p == nil || p.Spec == nil {
		return nil
	}
	return func(pad uint64) *staticconf.Spec { return cs.PadBuilder(pad).Spec }
}

// span splits [0, n) into `threads` nearly equal chunks and returns chunk
// tid as [lo, hi). It is the partitioning every parallel kernel uses.
func span(n, tid, threads int) (lo, hi int) {
	chunk := n / threads
	rem := n % threads
	lo = tid*chunk + min(tid, rem)
	hi = lo + chunk
	if tid < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// registry of all workloads, populated by the constructors below.

// Builder constructs a fresh CaseStudy at default scale.
type Builder func() *CaseStudy

var registry = map[string]Builder{}

func register(name string, b Builder) {
	if _, dup := registry[name]; dup {
		panic("workloads: duplicate registration of " + name)
	}
	registry[name] = b
}

// Get builds the named case study at default scale. It returns an error
// listing available names on a miss.
func Get(name string) (*CaseStudy, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (available: %v)", name, Names())
	}
	return b(), nil
}

// Names returns the registered workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
