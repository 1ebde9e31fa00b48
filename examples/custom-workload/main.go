// Bring your own kernel: build a synthetic binary and allocation arena for
// a custom loop nest, wrap it as a Program, and run the full CCProf
// pipeline on it — the workflow §A.6 of the paper's artifact describes for
// "evaluating a new application".
//
// The kernel here is a classic histogram with a power-of-two-strided bin
// layout: bins padded to 4096 bytes apart all live in cache set 0, so
// random increments conflict; the fixed layout packs them densely.
//
// Run with: go run ./examples/custom-workload
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/pmu"
)

// buildHistogram constructs the custom workload. binStride is the distance
// in bytes between consecutive bins.
func buildHistogram(name string, bins int, binStride uint64, updates int) *ccprof.Program {
	// 1. Describe the kernel's code: one loop over updates, with a load
	//    and a store on the touched bin. The analyzer will rediscover
	//    this loop from the binary and attribute samples to it.
	b := ccprof.NewBinaryBuilder(name)
	b.Func("histogram")
	b.Loop("hist.c", 10)
	ld := b.Load("hist.c", 11)  // bin[k] read
	st := b.Store("hist.c", 12) // bin[k] += 1
	b.EndLoop()
	bin := b.Finish()

	// 2. Describe the data: one allocation holding all bins at the given
	//    stride (a padded struct-of-counters layout).
	ar := ccprof.NewArena()
	table := ar.Alloc("bin_table", uint64(bins)*binStride, 4096)

	// 3. The run function emits one load+store per histogram update, at
	//    pseudo-random bins (seeded, so runs are reproducible), into its
	//    thread's Emitter: one Ref call per memory access.
	run := func(tid, threads int, sink *ccprof.Emitter) {
		if tid != 0 {
			return
		}
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < updates; i++ {
			addr := table.Start + uint64(rng.Intn(bins))*binStride
			sink.Ref(ccprof.Ref{IP: ld, Addr: addr})
			sink.Ref(ccprof.Ref{IP: st, Addr: addr, Write: true})
		}
	}
	return ccprof.NewProgram(name, bin, ar, run)
}

func main() {
	const bins, updates = 256, 400_000

	// The "bad" layout spaces bins one page apart: every bin maps to the
	// same L1 set (4096 = 64 sets x 64B lines). The "good" layout packs
	// them at 64B (one line per bin, walking all sets).
	bad := buildHistogram("histogram-padded4k", bins, 4096, updates)
	good := buildHistogram("histogram-dense", bins, 64, updates)

	for _, p := range []*ccprof.Program{bad, good} {
		an, err := ccprof.ProfileAndAnalyze(p,
			ccprof.ProfileOptions{Period: pmu.Uniform(171), Seed: 1, NoTime: true},
			ccprof.AnalyzeOptions{})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "clean"
		if an.Conflict {
			verdict = "CONFLICT MISSES"
		}
		fmt.Printf("%-22s cf(T=8)=%5.1f%%  verdict: %s\n", p.Name, 100*an.CF, verdict)
		for _, l := range an.Loops {
			fmt.Printf("    loop %-12s %6d samples, %2d sets used, cf %5.1f%%\n",
				l.Loop, l.Samples, l.SetsUsed, 100*l.CF)
		}
		for _, d := range an.Data {
			fmt.Printf("    data %-12s %6d samples, %6d short-RCD\n", d.Name, d.Samples, d.ShortRCD)
		}
		fmt.Println()
	}

	fmt.Println("The page-strided table concentrates every access in one cache set")
	fmt.Println("(256 lines fighting over 8 ways); the dense table spreads bins")
	fmt.Println("across all 64 sets and CCProf reports it clean.")
}
