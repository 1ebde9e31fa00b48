package core

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/objfile"
	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/vmem"
	"repro/internal/workloads"
)

// The Fig 2 symmetrization kernel at 512x512 conflicts in the L2 as well
// (rows span a multiple of the L2 way size); the physically-indexed
// extension must see it under identity mapping.
func TestProfileL2DetectsSymmetrizationConflict(t *testing.T) {
	cs := workloads.NewSymmetrizationReps(512, 2)
	an, err := ProfileL2(cs.Original, L2ProfileOptions{
		Period: pmu.Uniform(63),
		Seed:   1,
		Policy: vmem.Identity,
	})
	if err != nil {
		t.Fatal(err)
	}
	if an.Samples == 0 {
		t.Fatal("no L2 samples")
	}
	if !an.Conflict() {
		t.Errorf("identity-mapped L2 conflict not detected (cf=%.2f)", an.CF)
	}
	// The padded variant must come back clean.
	anOpt, err := ProfileL2(cs.Optimized, L2ProfileOptions{
		Period: pmu.Uniform(63),
		Seed:   1,
		Policy: vmem.Identity,
	})
	if err != nil {
		t.Fatal(err)
	}
	if anOpt.CF >= an.CF/2 {
		t.Errorf("padding did not collapse L2 cf: %.2f -> %.2f", an.CF, anOpt.CF)
	}
}

func TestProfileL2DataAttributionThroughVirtualAddr(t *testing.T) {
	cs := workloads.NewSymmetrizationReps(256, 2)
	an, err := ProfileL2(cs.Original, L2ProfileOptions{
		Period: pmu.Uniform(31),
		Seed:   2,
		Policy: vmem.Sequential, // physical != virtual
	})
	if err != nil {
		t.Fatal(err)
	}
	if an.Data["A"] == 0 {
		t.Errorf("matrix A not attributed: %v", an.Data)
	}
	top := an.TopData()
	if len(top) == 0 || top[0] != "A" {
		t.Errorf("TopData = %v, want A first", top)
	}
}

func TestProfileL2PolicyMatters(t *testing.T) {
	// A column walk with a 256KiB stride: under identity mapping every
	// access shares one physical set; random frame allocation recolours
	// the L2's 8 page colours (a 32KiB set span over 4KiB pages) and
	// disperses the conflict. Twelve rows overflow one set's 8 ways but
	// fit once spread, leaving random paging only the compulsory misses.
	// With 4KiB pages this dispersal only exists for strides spanning
	// many colours — symmetrization-style 4KiB rows barely react, which
	// is why the L2 extension experiment pads instead of recolouring.
	run := func(pol vmem.Policy) float64 {
		p := strideKernel(256*1024, 12, 40)
		an, err := ProfileL2(p, L2ProfileOptions{
			Period: pmu.Fixed(1),
			Seed:   3,
			Policy: pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		return an.CF
	}
	ident := run(vmem.Identity)
	random := run(vmem.Random)
	if ident < 0.5 {
		t.Fatalf("identity-mapped stride walk cf = %.2f, want high", ident)
	}
	if random >= ident/2 {
		t.Errorf("random paging should weaken physical conflicts: identity cf %.2f, random cf %.2f",
			ident, random)
	}
}

func TestProfileL2NilProgram(t *testing.T) {
	if _, err := ProfileL2(nil, L2ProfileOptions{}); err == nil {
		t.Error("nil program should error")
	}
}

func TestProfileL2Defaults(t *testing.T) {
	cs := workloads.NewSymmetrization(64)
	an, err := ProfileL2(cs.Original, L2ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Policy != vmem.Identity {
		t.Errorf("default policy = %v", an.Policy)
	}
}

// strideKernel walks `rows` addresses spaced `stride` bytes apart, `reps`
// times — a configurable conflict generator for translation tests.
func strideKernel(stride uint64, rows, reps int) *workloads.Program {
	b := objfile.NewBuilder("stride")
	b.Func("main")
	b.Loop("st.c", 1)
	ld := b.Load("st.c", 2)
	b.EndLoop()
	bin := b.Finish()
	ar := alloc.NewArena()
	blk := ar.Alloc("walk", uint64(rows)*stride, 4096)
	return workloads.NewProgram("stride", bin, ar, func(tid, threads int, sink *trace.Emitter) {
		if tid != 0 {
			return
		}
		for r := 0; r < reps; r++ {
			for i := 0; i < rows; i++ {
				sink.Ref(trace.Ref{IP: ld, Addr: blk.Start + uint64(i)*stride})
			}
		}
	})
}
