package workloads

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/objfile"
	"repro/internal/trace"
)

// checkProgram validates the structural invariants every Program must hold:
// a well-formed binary whose CFG contains loops, every emitted IP resolvable
// to an instruction and a line, and every address inside a named allocation.
func checkProgram(t *testing.T, p *Program) {
	t.Helper()
	if err := p.Binary.Validate(); err != nil {
		t.Fatalf("%s: invalid binary: %v", p.Name, err)
	}
	g, err := cfg.Build(p.Binary)
	if err != nil {
		t.Fatalf("%s: CFG: %v", p.Name, err)
	}
	forest := g.FindLoops()
	if len(forest.Loops) == 0 {
		t.Errorf("%s: no loops recovered from binary", p.Name)
	}

	var total int
	badIP, badAddr, outsideLoop := 0, 0, 0
	p.Run(trace.SinkFunc(func(r trace.Ref) {
		total++
		if total > 2_000_000 {
			return // cap validation work on big kernels
		}
		if in, ok := p.Binary.InstrAt(r.IP); !ok {
			badIP++
		} else if in.Kind != objfile.Load && in.Kind != objfile.Store {
			badIP++
		}
		if _, ok := p.Arena.Find(r.Addr); !ok {
			badAddr++
		}
		if forest.InnermostAt(r.IP) == nil {
			outsideLoop++
		}
	}))
	if total == 0 {
		t.Fatalf("%s: program emitted no references", p.Name)
	}
	if badIP > 0 {
		t.Errorf("%s: %d refs with unknown/non-memory IPs", p.Name, badIP)
	}
	if badAddr > 0 {
		t.Errorf("%s: %d refs outside any allocation", p.Name, badAddr)
	}
	if outsideLoop > 0 {
		t.Errorf("%s: %d refs not attributable to a loop", p.Name, outsideLoop)
	}
}

func TestAllCaseStudiesWellFormed(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			cs, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if cs.Original == nil || cs.Optimized == nil {
				t.Fatal("case study missing a variant")
			}
			// Use small builds for the heavyweight cases.
			switch name {
			case "nw":
				cs = NewNW(128, 16)
			case "adi":
				cs = NewADI(128, 1)
			case "fft":
				cs = NewFFT(64)
			case "himeno":
				cs = NewHimeno(16, 16, 32, 1)
			case "kripke":
				cs = NewKripke(32, 16, 16)
			case "tinydnn":
				cs = NewTinyDNN(64, 256, 1)
			case "symmetrization":
				cs = NewSymmetrization(64)
			}
			checkProgram(t, cs.Original)
			checkProgram(t, cs.Optimized)
		})
	}
}

func TestRodiniaSuiteWellFormed(t *testing.T) {
	suite := RodiniaSuite()
	if len(suite) != 18 {
		t.Fatalf("Rodinia suite has %d kernels, want 18 (as in Figure 7)", len(suite))
	}
	seen := map[string]bool{}
	for _, p := range suite {
		if seen[p.Name] {
			t.Errorf("duplicate kernel name %q", p.Name)
		}
		seen[p.Name] = true
	}
	if !seen["nw"] {
		t.Error("suite must include nw")
	}
	for _, p := range suite {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			checkProgram(t, p)
		})
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("no-such-kernel"); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	want := []string{"adi", "fft", "himeno", "kripke", "nw", "symmetrization", "tinydnn"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

// Parallel partitions must exactly cover the sequential stream (same
// address multiset) for the parallel case studies.
func TestThreadPartitioningCoversWork(t *testing.T) {
	cs := NewSymmetrization(64)
	p := cs.Original

	var seq trace.Counter
	p.Run(&seq)

	var par trace.Counter
	const threads = 7
	for tid := 0; tid < threads; tid++ {
		p.RunThread(tid, threads, &par)
	}
	if seq.Total() != par.Total() || seq.Writes != par.Writes {
		t.Errorf("parallel total = %d (%d writes), sequential = %d (%d writes)",
			par.Total(), par.Writes, seq.Total(), seq.Writes)
	}
}

func TestRunThreadBadTIDPanics(t *testing.T) {
	p := NewSymmetrization(16).Original
	defer func() {
		if recover() == nil {
			t.Fatal("RunThread with tid >= threads should panic")
		}
	}()
	p.RunThread(3, 2, trace.Discard)
}

func TestSpan(t *testing.T) {
	// Chunks must partition [0,n) contiguously for any n, threads.
	for _, n := range []int{0, 1, 7, 64, 100} {
		for _, th := range []int{1, 2, 3, 28} {
			prev := 0
			total := 0
			for tid := 0; tid < th; tid++ {
				lo, hi := span(n, tid, th)
				if lo != prev {
					t.Fatalf("span(%d,%d,%d): lo=%d, want %d", n, tid, th, lo, prev)
				}
				if hi < lo {
					t.Fatalf("span(%d,%d,%d): hi < lo", n, tid, th)
				}
				total += hi - lo
				prev = hi
			}
			if total != n || prev != n {
				t.Fatalf("span over n=%d threads=%d covers %d", n, th, total)
			}
		}
	}
}

func TestRecord(t *testing.T) {
	p := NewSymmetrization(8).Original
	rec := p.Record()
	if rec.Len() != 8*8*3 {
		t.Errorf("recorded %d refs, want %d", rec.Len(), 8*8*3)
	}
}

func TestOptimizedVariantsDifferInLayoutOrOrder(t *testing.T) {
	for _, name := range Names() {
		cs, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if cs.Original.Name == cs.Optimized.Name {
			t.Errorf("%s: variants share the name %q", name, cs.Original.Name)
		}
	}
}

func TestDeterministicEmission(t *testing.T) {
	// Kernels with internal RNGs must still be deterministic run-to-run
	// (fresh construction gives fresh, identically-seeded RNGs).
	run := func() []trace.Ref {
		var rec trace.Recorder
		BFS().Run(&rec)
		return rec.Refs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs", i)
		}
	}
}

// TestRunThreadZeroAlloc guards the production emission path: once a
// program is warm (values materialized, an emitter pooled), a RunThread
// allocates nothing per run, whether the sink takes blocks or single
// references.
func TestRunThreadZeroAlloc(t *testing.T) {
	p := NewADI(64, 1).Original
	var blocks trace.Counter
	var refs uint64
	plain := trace.SinkFunc(func(trace.Ref) { refs++ })
	for _, sink := range []trace.Sink{&blocks, plain} {
		if allocs := testing.AllocsPerRun(10, func() { p.RunThread(0, 1, sink) }); allocs != 0 {
			t.Errorf("RunThread into %T allocated %.1f times per run, want 0", sink, allocs)
		}
	}
	if blocks.Total() == 0 || refs != blocks.Total() {
		t.Errorf("block sink saw %d refs, SinkFunc %d", blocks.Total(), refs)
	}
}
