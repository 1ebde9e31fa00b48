// Command ccsim is a Dinero-style trace-driven cache simulator: it replays
// a framed (CCTB) CCProf trace (or a built-in workload) through a configurable
// set-associative cache and reports hit/miss statistics, per-set miss
// distribution, miss classification, and exact RCD metrics — the
// ground-truth path the paper validates CCProf against.
//
// Usage:
//
//	ccsim -trace FILE [-line 64 -sets 64 -ways 8]
//	ccsim -workload adi [-variant optimized] [-dump FILE]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/rcd"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	var (
		traceIn  = flag.String("trace", "", "replay this framed (CCTB) trace file")
		workload = flag.String("workload", "", "or: run this built-in workload")
		variant  = flag.String("variant", "original", "workload variant: original or optimized")
		dump     = flag.String("dump", "", "also write the reference trace to this file (framed CCTB format)")
		lineSize = flag.Int("line", 64, "cache line size (bytes)")
		sets     = flag.Int("sets", 64, "number of cache sets")
		ways     = flag.Int("ways", 8, "associativity")
		top      = flag.Int("top", 8, "victim sets to display")
	)
	flag.Parse()

	geom, err := mem.NewGeometry(*lineSize, *sets, *ways)
	if err != nil {
		fatal(err)
	}

	cl := cache.NewClassifier(geom)
	tr := rcd.NewCP(geom.Sets)
	var count trace.Counter
	sinks := []trace.Sink{&count, trace.SinkFunc(func(r trace.Ref) {
		if cl.Access(r.Addr) != cache.Hit {
			tr.Observe(geom.Set(r.Addr))
		}
	})}

	if *traceIn == "" && *workload == "" {
		fmt.Fprintln(os.Stderr, "ccsim: need -trace FILE or -workload NAME")
		flag.Usage()
		os.Exit(2)
	}
	// The dump appears at its path only after a complete replay: fail
	// removes the unfinished trace before exiting.
	var out *trace.TraceFile
	fail := func(err error) {
		if out != nil {
			out.Abort()
		}
		fatal(err)
	}
	if *dump != "" {
		if out, err = trace.CreateTraceFile(*dump, 0); err != nil {
			fatal(err)
		}
		sinks = append(sinks, out)
	}
	sink := trace.Tee(sinks...)

	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fail(err)
		}
		_, err = trace.ReadAllFramed(f, sink)
		f.Close()
		if err != nil {
			fail(err)
		}
	} else {
		cs, err := ccprof.Workload(*workload)
		if err != nil {
			fail(err)
		}
		p := cs.Original
		if *variant == "optimized" {
			p = cs.Optimized
		}
		p.Run(sink)
	}
	if out != nil {
		if err := out.Commit(); err != nil {
			fatal(err)
		}
	}
	tr.Flush()

	c := cl.Cache
	fmt.Printf("cache: %v\n", geom)
	fmt.Printf("refs: %d (%d reads, %d writes)\n", count.Total(), count.Reads, count.Writes)
	fmt.Printf("accesses: %d  hits: %d  misses: %d  miss ratio: %.4f\n",
		c.Accesses(), c.Hits, c.Misses, c.MissRatio())
	fmt.Printf("miss classes: cold=%d capacity=%d conflict=%d (conflict share %.1f%%)\n",
		cl.Counts[cache.Cold], cl.Counts[cache.Capacity], cl.Counts[cache.Conflict],
		100*cl.ConflictRatio())
	fmt.Printf("sets used: %d/%d  imbalance (max/mean): %.2f\n",
		c.SetsUsed(), geom.Sets, tr.RCD().Imbalance())
	fmt.Printf("exact RCD cf(T=%d): %s  mean conflict period: %.1f\n",
		rcd.DefaultThreshold, report.Pct(tr.RCD().ContributionFactor(rcd.DefaultThreshold)), tr.MeanPeriod())

	// Victim sets by miss count.
	type sv struct {
		set    int
		misses uint64
	}
	var victims []sv
	for s, m := range c.SetMisses {
		victims = append(victims, sv{s, m})
	}
	for i := 0; i < len(victims); i++ {
		for j := i + 1; j < len(victims); j++ {
			if victims[j].misses > victims[i].misses {
				victims[i], victims[j] = victims[j], victims[i]
			}
		}
	}
	if *top > len(victims) {
		*top = len(victims)
	}
	t := report.NewTable("\nhottest cache sets", "set", "misses", "share")
	for _, v := range victims[:*top] {
		share := 0.0
		if c.Misses > 0 {
			share = float64(v.misses) / float64(c.Misses)
		}
		t.Row(v.set, v.misses, report.Pct(share))
	}
	if err := t.Write(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccsim:", err)
	os.Exit(1)
}
