package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/faultinj"
	"repro/internal/mem"
	"repro/internal/objfile"
	"repro/internal/pmu"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/analyses.golden")

const analysesGolden = "testdata/analyses.golden"

// analysisInput is one profile the golden table pins: a program built
// fresh for every run (data-dependent kernels must start from their
// initial state) and the profiling options it runs under.
type analysisInput struct {
	name  string
	build func() *workloads.Program
	opts  ProfileOptions
}

// analysisInputs lists every case study (both variants, at its
// recommended period) and every Rodinia kernel at threads 1 and 2, plus a
// burst profile and a fault-injected profile whose corrupted addresses
// leave the arena.
func analysisInputs(t *testing.T) []analysisInput {
	t.Helper()
	var in []analysisInput
	for _, name := range workloads.Names() {
		cs, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		period := cs.ProfilePeriod
		for _, optimized := range []bool{false, true} {
			variant := "original"
			if optimized {
				variant = "optimized"
			}
			build := func() *workloads.Program {
				cs, _ := workloads.Get(name) // name came from Names()
				if optimized {
					return cs.Optimized
				}
				return cs.Original
			}
			for _, threads := range []int{1, 2} {
				in = append(in, analysisInput{
					name:  fmt.Sprintf("%s/%s t%d", name, variant, threads),
					build: build,
					opts:  ProfileOptions{Period: pmu.Uniform(period), Seed: 42, Threads: threads, NoTime: true},
				})
			}
		}
	}
	for i, p := range workloads.RodiniaSuite() {
		build := func() *workloads.Program { return workloads.RodiniaSuite()[i] }
		for _, threads := range []int{1, 2} {
			in = append(in, analysisInput{
				name:  fmt.Sprintf("rodinia/%s t%d", p.Name, threads),
				build: build,
				opts:  ProfileOptions{Period: pmu.Uniform(171), Seed: 42, Threads: threads, NoTime: true},
			})
		}
	}
	nw := func() *workloads.Program { return workloads.NewNW(256, 16).Original }
	in = append(in,
		analysisInput{
			name:  "nw-256/burst4 t2",
			build: nw,
			opts:  ProfileOptions{Period: pmu.Uniform(171), Seed: 42, Threads: 2, Burst: 4, NoTime: true},
		},
		analysisInput{
			name:  "nw-256/corrupt-bit40 t2",
			build: nw,
			opts: ProfileOptions{Period: pmu.Uniform(171), Seed: 42, Threads: 2, NoTime: true,
				Faults: &faultinj.Plan{Seed: 23, CorruptRate: 0.25, CorruptMask: 1 << 40}},
		},
	)
	return in
}

// fnv64 is FNV-1a-64 over b.
func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// analysisPrint renders one analysis path of one input as a golden line:
// FNV-1a-64 of the profile's WriteTo bytes, of the WriteReport text and of
// the JSON-encoded Analysis.
func analysisPrint(t *testing.T, name, path string, prof *Profile, an *Analysis) string {
	t.Helper()
	var raw, rep bytes.Buffer
	if _, err := prof.WriteTo(&raw); err != nil {
		t.Fatal(err)
	}
	if err := WriteReport(&rep, an); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(an)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s %s profile=%016x report=%016x json=%016x", name, path, fnv64(raw.Bytes()), fnv64(rep.Bytes()), fnv64(js))
}

// analysisPrints returns the three golden lines of one input: the
// analysis reached through ProfileProgram→Analyze, through
// WriteTo→ReadProfile→Analyze, and through ProfileStream.
func analysisPrints(t *testing.T, in analysisInput) []string {
	t.Helper()
	p := in.build()
	prof, err := ProfileProgram(p, in.opts)
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(prof, p.Binary, p.Arena, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{analysisPrint(t, in.name, "buffered", prof, an)}

	var raw bytes.Buffer
	if _, err := prof.WriteTo(&raw); err != nil {
		t.Fatal(err)
	}
	back, err := ReadProfile(&raw)
	if err != nil {
		t.Fatal(err)
	}
	an, err = Analyze(back, p.Binary, p.Arena, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, analysisPrint(t, in.name, "readback", back, an))

	p = in.build()
	sprof, an, err := ProfileStream(p, in.opts, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return append(lines, analysisPrint(t, in.name, "stream", sprof, an))
}

// TestAnalysesGolden pins what the analyzer outputs: for every input of
// analysisInputs and each of the three ways to reach an Analysis, the
// hashes of the serialized profile, the text report and the JSON analysis
// must match testdata/analyses.golden. Regenerate with
// "go test ./internal/core -run TestAnalysesGolden -args -update" only
// when an analysis is meant to change.
func TestAnalysesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles every workload three ways")
	}
	inputs := analysisInputs(t)
	got := make([][]string, len(inputs))
	t.Run("inputs", func(t *testing.T) {
		for i, in := range inputs {
			t.Run(in.name, func(t *testing.T) {
				t.Parallel()
				got[i] = analysisPrints(t, in)
			})
		}
	})
	if t.Failed() {
		return
	}
	var lines []string
	for _, g := range got {
		lines = append(lines, g...)
	}

	if *update {
		body := "# input path fnv1a64(WriteTo) fnv1a64(WriteReport) fnv1a64(json Analysis)\n" + strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(analysesGolden, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(analysesGolden)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want []string
	for _, l := range strings.Split(string(data), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if len(lines) != len(want) {
		t.Fatalf("%d lines, golden has %d", len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i, lines[i], want[i])
		}
	}
}

// TestAttributionTablesMatchLookups checks the analyzer's per-sample
// lookups against the ones they stand in for, on every binary and arena
// of the golden inputs: the instruction table must give FuncFor's function
// and InnermostAt's loop for every IP from 64 bytes below the text to 64
// bytes above it, misaligned ones included, and the block search must give
// Arena.Find's allocation for each block's first and last byte and the
// byte on either side, whichever block an instruction's latest sample
// fell in.
func TestAttributionTablesMatchLookups(t *testing.T) {
	var progs []*workloads.Program
	for _, name := range workloads.Names() {
		cs, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, cs.Original, cs.Optimized)
	}
	progs = append(progs, workloads.RodiniaSuite()...)
	for _, p := range progs {
		ss, err := newStreamState(p.Binary, p.Arena, mem.L1Default(), 1, 1, AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		bin := p.Binary
		lo := bin.Instrs[0].Addr - 64
		hi := bin.Instrs[len(bin.Instrs)-1].Addr + objfile.InstrSize + 64
		for ip := lo; ip < hi; ip++ {
			fn, loop := ss.code(ss.slot(ip), ip)
			f, ok := bin.FuncFor(ip)
			if ok != (fn >= 0) || ok && bin.Funcs[fn] != f {
				t.Errorf("%s: ip %#x: table function %d, FuncFor %v %v", p.Name, ip, fn, f, ok)
			}
			if want := ss.forest.InnermostAt(ip); loop != want {
				t.Errorf("%s: ip %#x: table loop %v, InnermostAt %v", p.Name, ip, loop, want)
			}
		}
		blocks := p.Arena.Blocks()
		for _, b := range blocks {
			for _, addr := range []uint64{b.Start - 1, b.Start, b.End() - 1, b.End()} {
				want, ok := p.Arena.Find(addr)
				check := func(how string, i int) {
					if ok != (i >= 0) || ok && blocks[i] != want {
						t.Errorf("%s: addr %#x: %s gives block %d, Arena.Find %v %v", p.Name, addr, how, i, want, ok)
					}
				}
				check("block search", blockIndex(blocks, addr))
				check("no table entry", block(blocks, nil, addr))
				for g := range blocks {
					check(fmt.Sprintf("guess %d", g), block(blocks, &codeSlot{block: int32(g)}, addr))
				}
			}
		}
		ss.finish(p.Name)
	}
}
