package ccprof_test

import (
	"fmt"

	"repro"
	"repro/internal/pmu"
)

// Example demonstrates the core CCProf workflow: profile a workload with
// sampled L1-miss addresses, analyze, and read the verdict.
func Example() {
	cs, err := ccprof.Workload("tinydnn")
	if err != nil {
		panic(err)
	}
	analyze := func(p *ccprof.Program) *ccprof.Analysis {
		an, err := ccprof.ProfileAndAnalyze(p,
			ccprof.ProfileOptions{Period: pmu.Uniform(cs.ProfilePeriod), Seed: 1, NoTime: true},
			ccprof.AnalyzeOptions{})
		if err != nil {
			panic(err)
		}
		return an
	}
	orig := analyze(cs.Original)
	opt := analyze(cs.Optimized)
	fmt.Printf("original conflict: %v\n", orig.Conflict)
	fmt.Printf("padded conflict:   %v\n", opt.Conflict)
	fmt.Printf("top data structure: %s\n", orig.Data[0].Name)
	// Output:
	// original conflict: true
	// padded conflict:   false
	// top data structure: W
}

// ExampleNewProgram shows how a user kernel plugs into the profiler: build
// a synthetic binary, describe the data, emit one Ref per access into the
// thread's Emitter.
func ExampleNewProgram() {
	b := ccprof.NewBinaryBuilder("demo")
	b.Func("main")
	b.Loop("demo.c", 1)
	ld := b.Load("demo.c", 2)
	b.EndLoop()
	bin := b.Finish()

	ar := ccprof.NewArena()
	table := ar.Alloc("table", 64*4096, 4096)

	p := ccprof.NewProgram("demo", bin, ar, func(tid, threads int, sink *ccprof.Emitter) {
		if tid != 0 {
			return
		}
		for i := 0; i < 100_000; i++ {
			// Page-strided accesses: every address lands in one L1 set.
			sink.Ref(ccprof.Ref{IP: ld, Addr: table.Start + uint64(i%64)*4096})
		}
	})

	an, err := ccprof.ProfileAndAnalyze(p,
		ccprof.ProfileOptions{Period: pmu.Uniform(171), Seed: 1, NoTime: true},
		ccprof.AnalyzeOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("loop %s conflict: %v\n", an.Loops[0].Loop, an.Loops[0].Conflict)
	fmt.Printf("sets used: %d\n", an.Loops[0].SetsUsed)
	// Output:
	// loop demo.c:1 conflict: true
	// sets used: 1
}
