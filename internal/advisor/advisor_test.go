package advisor

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/objfile"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// columnWalk builds a kernel that sweeps an n x n float64 matrix by
// columns — the canonical padding-fixable conflict when n*8 is a multiple
// of the L1 set span.
func columnWalk(n int) func(pad uint64) *workloads.Program {
	return func(pad uint64) *workloads.Program {
		b := objfile.NewBuilder("colwalk")
		b.Func("main")
		b.Loop("cw.c", 1)
		b.Loop("cw.c", 2)
		ld := b.Load("cw.c", 3)
		b.EndLoop()
		b.EndLoop()
		bin := b.Finish()
		ar := alloc.NewArena()
		m := alloc.NewMatrix2D(ar, "m", n, n, 8, pad)
		return workloads.NewProgram("colwalk", bin, ar, func(tid, threads int, sink *trace.Emitter) {
			if tid != 0 {
				return
			}
			for c := 0; c < n; c++ {
				for r := 0; r < n; r++ {
					sink.Ref(trace.Ref{IP: ld, Addr: m.At(r, c)})
				}
			}
		})
	}
}

// rowWalk is the conflict-free control: the same matrix swept row-major.
func rowWalk(n int) func(pad uint64) *workloads.Program {
	return func(pad uint64) *workloads.Program {
		b := objfile.NewBuilder("rowwalk")
		b.Func("main")
		b.Loop("rw.c", 1)
		ld := b.Load("rw.c", 2)
		b.EndLoop()
		bin := b.Finish()
		ar := alloc.NewArena()
		m := alloc.NewMatrix2D(ar, "m", n, n, 8, pad)
		return workloads.NewProgram("rowwalk", bin, ar, func(tid, threads int, sink *trace.Emitter) {
			if tid != 0 {
				return
			}
			for r := 0; r < n; r++ {
				for c := 0; c < n; c++ {
					sink.Ref(trace.Ref{IP: ld, Addr: m.At(r, c)})
				}
			}
		})
	}
}

func TestRecommendsPadForColumnWalk(t *testing.T) {
	// 512x512 doubles: 4KiB rows, so every row starts at L1 set 0.
	res, err := RecommendPad(columnWalk(512), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Pad == 0 {
		t.Fatalf("advisor kept pad 0 for a conflicting layout: %+v", res.Candidates)
	}
	if res.Improvement() < 0.5 {
		t.Errorf("improvement = %.2f, want > 0.5", res.Improvement())
	}
	if res.Best.CF >= res.Baseline.CF {
		t.Errorf("cf did not drop: %.2f -> %.2f", res.Baseline.CF, res.Best.CF)
	}
	// The classic fix is one line (64B) or less; anything <= 128 is sane.
	if res.Best.Pad > 128 {
		t.Errorf("recommended pad %d is wastefully large", res.Best.Pad)
	}
}

func TestKeepsZeroPadForRowWalk(t *testing.T) {
	res, err := RecommendPad(rowWalk(256), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Pad != 0 {
		t.Errorf("advisor recommended pad %d for a streaming kernel", res.Best.Pad)
	}
	if res.Improvement() > 0.05 {
		t.Errorf("claimed improvement %.2f on an already-optimal layout", res.Improvement())
	}
}

func TestMatchesPaperADIPad(t *testing.T) {
	// The paper pads ADI rows by 32 bytes; the advisor should find an
	// equally small fix for the ADI case study.
	res, err := RecommendPad(func(pad uint64) *workloads.Program {
		// Rebuild ADI's original at the candidate pad by constructing
		// the case study and selecting by pad: pad 0 = original layout.
		return adiAt(pad)
	}, Options{Pads: []uint64{0, 32, 64, 288}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Pad != 32 {
		t.Errorf("recommended pad = %d, want 32 (the paper's fix): %+v", res.Best.Pad, res.Candidates)
	}
}

// adiAt rebuilds a small ADI at an arbitrary pad via the column-walk proxy
// over three matrices (the access structure that matters for padding).
func adiAt(pad uint64) *workloads.Program {
	const n = 256
	b := objfile.NewBuilder("adi-proxy")
	b.Func("main")
	b.Loop("adi.c", 7)
	b.Loop("adi.c", 8)
	ldU := b.Load("adi.c", 9)
	ldA := b.Load("adi.c", 9)
	ldB := b.Load("adi.c", 9)
	b.EndLoop()
	b.EndLoop()
	bin := b.Finish()
	ar := alloc.NewArena()
	u := alloc.NewMatrix2D(ar, "u", n, n, 8, pad)
	av := alloc.NewMatrix2D(ar, "a", n, n, 8, pad)
	bv := alloc.NewMatrix2D(ar, "b", n, n, 8, pad)
	return workloads.NewProgram("adi-proxy", bin, ar, func(tid, threads int, sink *trace.Emitter) {
		if tid != 0 {
			return
		}
		for i1 := 0; i1 < n; i1++ {
			for i2 := 1; i2 < n; i2++ {
				sink.Ref(trace.Ref{IP: ldU, Addr: u.At(i2, i1)})
				sink.Ref(trace.Ref{IP: ldA, Addr: av.At(i2, i1)})
				sink.Ref(trace.Ref{IP: ldB, Addr: bv.At(i2-1, i1)})
			}
		}
	})
}

func TestOptionsValidation(t *testing.T) {
	if _, err := RecommendPad(nil, Options{}); err == nil {
		t.Error("nil build should error")
	}
	if _, err := RecommendPad(rowWalk(16), Options{Pads: []uint64{}}); err == nil {
		t.Error("empty pad list should error")
	}
}

func TestMaxRefsCap(t *testing.T) {
	res, err := RecommendPad(columnWalk(256), Options{
		Pads:    []uint64{0, 64},
		MaxRefs: 10_000,
		Geom:    mem.L1Default(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if c.Misses > 10_000 {
			t.Errorf("candidate simulated more than MaxRefs: %+v", c)
		}
	}
}

func TestDuplicatePadsDeduplicated(t *testing.T) {
	res, err := RecommendPad(rowWalk(16), Options{Pads: []uint64{0, 64, 64, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 2 {
		t.Errorf("candidates = %d, want 2 after dedup", len(res.Candidates))
	}
}
