package workloads

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/objfile"
	"repro/internal/stats"
	"repro/internal/trace"
)

func init() {
	register("adi", func() *CaseStudy { return NewADI(512, 2) })
}

// NewADI builds the PolyBench/C Alternating Direction Implicit solver case
// study (§6.2, Listing 2). Each timestep performs a row sweep and a column
// sweep over n x n double matrices. With n a power of two, every row of the
// matrix starts at the same cache set, so the column sweep revisits one set
// per column — the paper measures RCD = 1 on matrix u. The optimized
// variant pads each row by 32 bytes, exactly the paper's fix.
func NewADI(n, steps int) *CaseStudy {
	return &CaseStudy{
		Name:          "ADI",
		Desc:          fmt.Sprintf("PolyBench ADI 2D solver, %dx%d doubles, %d steps", n, n, steps),
		Original:      adiProgram(n, steps, 0),
		Optimized:     adiProgram(n, steps, 32),
		TargetLoop:    "adi.c:8",
		ProfilePeriod: 171,
		Parallel:      false, // Table 3 reports ADI sequential
		PadBuilder:    func(pad uint64) *Program { return adiProgram(n, steps, pad) },
	}
}

func adiProgram(n, steps int, pad uint64) *Program {
	name := "adi"
	if pad > 0 {
		name = fmt.Sprintf("adi-pad%d", pad)
	}

	b := objfile.NewBuilder(name)
	b.Func("kernel_adi")
	b.Loop("adi.c", 2) // for t (timesteps)

	// Row sweep: X[i1][i2] updated from X[i1][i2-1] — streaming, benign.
	b.Loop("adi.c", 3) // for i1
	b.Loop("adi.c", 4) // for i2
	rowLdX := b.Load("adi.c", 5)
	rowLdXPrev := b.Load("adi.c", 5)
	rowLdA := b.Load("adi.c", 5)
	rowLdB := b.Load("adi.c", 5)
	rowSt := b.Store("adi.c", 5)
	b.EndLoop()
	b.EndLoop()

	// Column sweep (Listing 2): u[i2][i1] for fixed i1 walks down a
	// column; with power-of-two rows every access lands in one set.
	b.Loop("adi.c", 7) // for i1
	b.Loop("adi.c", 8) // for i2 — the 80%-of-L1-misses loop
	colLdX := b.Load("adi.c", 9)
	colLdXPrev := b.Load("adi.c", 9)
	colLdA := b.Load("adi.c", 9)
	colLdB := b.Load("adi.c", 9)
	colSt := b.Store("adi.c", 9)
	b.EndLoop()
	b.EndLoop()

	b.EndLoop()
	bin := b.Finish()

	ar := alloc.NewArena()
	u := alloc.NewMatrix2D(ar, "u", n, n, 8, pad)
	av := alloc.NewMatrix2D(ar, "a", n, n, 8, pad)
	bv := alloc.NewMatrix2D(ar, "b", n, n, 8, pad)

	// Static access spec: per timestep, a streaming row sweep and a
	// row-strided column sweep over the three aligned matrices. The
	// column sweep's inner stride is the row stride — the §2 pathology
	// when n*8 is a multiple of the set span.
	rs := int64(u.RowStride())
	sp := spec(name,
		// Row sweep (adi.c:4): u, a, b stream row-major.
		acc("u", "adi.c:4", u.At(0, 1), 8, 1, dim(0, steps), dim(rs, n), dim(8, n-1)),
		acc("a", "adi.c:4", av.At(0, 1), 8, 1, dim(0, steps), dim(rs, n), dim(8, n-1)),
		acc("b", "adi.c:4", bv.At(0, 0), 8, 1, dim(0, steps), dim(rs, n), dim(8, n-1)),
		// Column sweep (adi.c:8): the reuse window is one column walk.
		acc("u", "adi.c:8", u.At(1, 0), 8, 1, dim(0, steps), dim(8, n), dim(rs, n-1)),
		acc("a", "adi.c:8", av.At(1, 0), 8, 1, dim(0, steps), dim(8, n), dim(rs, n-1)),
		acc("b", "adi.c:8", bv.At(0, 0), 8, 1, dim(0, steps), dim(8, n), dim(rs, n-1)),
	)

	// Real solver values: u is the unknown field, a/b the sweep
	// coefficients (|a/b| < 1 keeps the recurrences stable). Check
	// returns the field sum after the run; it must be identical for the
	// padded layout (padding moves addresses, never values).
	vals := lazy(func() *adiVals {
		v := &adiVals{}
		v.u, v.a, v.b = adiValues(n)
		return v
	})

	p := &Program{
		Name:   name,
		Binary: bin,
		Arena:  ar,
		Spec:   sp,
		runThread: func(tid, threads int, sink *trace.Emitter) {
			if tid != 0 {
				return // sequential case study
			}
			compute := threads == 1
			var uVals, aVals, bVals []float64
			if compute {
				v := vals()
				uVals, aVals, bVals = v.u, v.a, v.b
			}
			for t := 0; t < steps; t++ {
				// Row sweep.
				for i1 := 0; i1 < n; i1++ {
					for i2 := 1; i2 < n; i2++ {
						sink.Ref(trace.Ref{IP: rowLdX, Addr: u.At(i1, i2)})
						sink.Ref(trace.Ref{IP: rowLdXPrev, Addr: u.At(i1, i2-1)})
						sink.Ref(trace.Ref{IP: rowLdA, Addr: av.At(i1, i2)})
						sink.Ref(trace.Ref{IP: rowLdB, Addr: bv.At(i1, i2-1)})
						sink.Ref(trace.Ref{IP: rowSt, Addr: u.At(i1, i2), Write: true})
						if compute {
							uVals[i1*n+i2] -= uVals[i1*n+i2-1] * aVals[i1*n+i2] / bVals[i1*n+i2-1]
						}
					}
				}
				// Column sweep.
				for i1 := 0; i1 < n; i1++ {
					for i2 := 1; i2 < n; i2++ {
						sink.Ref(trace.Ref{IP: colLdX, Addr: u.At(i2, i1)})
						sink.Ref(trace.Ref{IP: colLdXPrev, Addr: u.At(i2-1, i1)})
						sink.Ref(trace.Ref{IP: colLdA, Addr: av.At(i2, i1)})
						sink.Ref(trace.Ref{IP: colLdB, Addr: bv.At(i2-1, i1)})
						sink.Ref(trace.Ref{IP: colSt, Addr: u.At(i2, i1), Write: true})
						if compute {
							uVals[i2*n+i1] -= uVals[(i2-1)*n+i1] * aVals[i2*n+i1] / bVals[(i2-1)*n+i1]
						}
					}
				}
			}
		},
	}
	p.Check = func() float64 {
		var sum float64
		for _, v := range vals().u {
			sum += v
		}
		return sum
	}
	return p
}

type adiVals struct{ u, a, b []float64 }

// adiValues generates the deterministic solver inputs.
func adiValues(n int) (u, a, b []float64) {
	rng := stats.NewRand(313)
	u = make([]float64, n*n)
	a = make([]float64, n*n)
	b = make([]float64, n*n)
	for i := range u {
		u[i] = rng.Float64()
		a[i] = rng.Float64() * 0.5
		b[i] = 1 + rng.Float64()
	}
	return
}
