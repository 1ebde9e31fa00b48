package workloads

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/alloc"
	"repro/internal/objfile"
	"repro/internal/stats"
	"repro/internal/trace"
)

func init() {
	register("fft", func() *CaseStudy { return NewFFT(256) })
}

// NewFFT builds the MKL-FFT case study (§6.3): a 2D complex DFT of
// power-of-two size, computed as in-place radix-2 FFTs over all rows and
// then all columns. Rows of n 16-byte complex elements span exactly n/4
// cache lines; for power-of-two n every row starts at the same set, so the
// column pass — whose butterflies stride by whole rows — concentrates on a
// few sets. This is the classical "2-power DFT" conflict the paper cites.
// The optimized variant pads each row by 8 complex elements (128 bytes),
// the paper's fix.
//
// The kernel computes the transform for real (decimation-in-time
// butterflies over a seeded input; Check returns the output energy, which
// Parseval's theorem pins to n^2 times the input energy). MKL is closed
// source, so CCProf attributes these samples to anonymous code blocks; the
// synthetic binary mirrors that by attributing the kernel to the
// pseudo-source "libmkl(anon)".
func NewFFT(n int) *CaseStudy {
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("workloads: FFT size %d is not a power of two", n))
	}
	return &CaseStudy{
		Name:          "MKL FFT",
		Desc:          fmt.Sprintf("2D complex DFT, %dx%d, radix-2 row+column passes", n, n),
		Original:      fftProgram(n, 0),
		Optimized:     fftProgram(n, 128),
		TargetLoop:    "libmkl(anon):30",
		ProfilePeriod: 171,
		Parallel:      true,
		PadBuilder:    func(pad uint64) *Program { return fftProgram(n, pad) },
	}
}

func fftProgram(n int, pad uint64) *Program {
	name := "fft"
	if pad > 0 {
		name = fmt.Sprintf("fft-pad%d", pad)
	}
	const src = "libmkl(anon)"

	b := objfile.NewBuilder(name)
	b.Func("mkl_dft_2d")
	// Row pass.
	b.Loop(src, 10) // for each row
	b.Loop(src, 11) // for each stage
	b.Loop(src, 12) // for each butterfly
	rowLdA := b.Load(src, 13)
	rowLdB := b.Load(src, 13)
	rowStA := b.Store(src, 14)
	rowStB := b.Store(src, 14)
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	// Column pass — the anonymous loop consuming 50% of L1 misses.
	b.Loop(src, 28) // for each column
	b.Loop(src, 29) // for each stage
	b.Loop(src, 30) // for each butterfly
	colLdA := b.Load(src, 31)
	colLdB := b.Load(src, 31)
	colStA := b.Store(src, 32)
	colStB := b.Store(src, 32)
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	bin := b.Finish()

	ar := alloc.NewArena()
	data := alloc.NewMatrix2D(ar, "dft_data", n, n, 16, pad)

	// Static access spec. Each in-place FFT revisits its n elements once
	// per stage (the zero-stride stage dim); the reuse window is one
	// whole transform. The column pass walks rows by the full row
	// stride — the 2-power DFT pathology.
	rs := int64(data.RowStride())
	stages := log2i(n)
	sp := spec(name,
		acc("dft_data", "libmkl(anon):12", data.At(0, 0), 16, 2,
			dim(rs, n), dim(0, stages), dim(16, n)),
		acc("dft_data", "libmkl(anon):30", data.At(0, 0), 16, 2,
			dim(16, n), dim(0, stages), dim(rs, n)),
	)

	// Element storage and the seeded input signal.
	signal := lazy(func() *fftVals {
		v := &fftVals{vals: make([]complex128, n*n)}
		rng := stats.NewRand(909)
		for i := range v.vals {
			v.vals[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
			re, im := real(v.vals[i]), imag(v.vals[i])
			v.inputEnergy += re*re + im*im
		}
		return v
	})

	// traced performs one in-place forward FFT over the n elements
	// addressed by at/idx, emitting the memory traffic of each butterfly.
	traced := func(sink *trace.Emitter, compute bool, at func(int) uint64, idx func(int) int,
		ldA, ldB, stA, stB uint64) {
		var vals []complex128
		if compute {
			vals = signal().vals
		}
		for half := 1; half < n; half <<= 1 {
			step := half << 1
			for base := 0; base < n; base += step {
				for off := 0; off < half; off++ {
					i, j := base+off, base+off+half
					sink.Ref(trace.Ref{IP: ldA, Addr: at(i)})
					sink.Ref(trace.Ref{IP: ldB, Addr: at(j)})
					sink.Ref(trace.Ref{IP: stA, Addr: at(i), Write: true})
					sink.Ref(trace.Ref{IP: stB, Addr: at(j), Write: true})
					if compute {
						ii, jj := idx(i), idx(j)
						w := twiddle(off, half)
						a, bb := vals[ii], vals[jj]
						t := w * bb
						vals[ii] = a + t
						vals[jj] = a - t
					}
				}
			}
		}
	}

	p := &Program{
		Name:   name,
		Binary: bin,
		Arena:  ar,
		Spec:   sp,
		runThread: func(tid, threads int, compute bool, sink *trace.Emitter) {
			lo, hi := span(n, tid, threads)
			for r := lo; r < hi; r++ {
				traced(sink, compute,
					func(k int) uint64 { return data.At(r, k) },
					func(k int) int { return r*n + k },
					rowLdA, rowLdB, rowStA, rowStB)
			}
			for c := lo; c < hi; c++ {
				traced(sink, compute,
					func(k int) uint64 { return data.At(k, c) },
					func(k int) int { return k*n + c },
					colLdA, colLdB, colStA, colStB)
			}
		},
	}
	p.Check = func() float64 {
		// Parseval: after the 2D forward transform the energy is
		// n^2 x input energy; Check returns the measured/expected ratio
		// (1.0 for a correct transform).
		s := signal()
		var e float64
		for _, v := range s.vals {
			re, im := real(v), imag(v)
			e += re*re + im*im
		}
		return e / (float64(n) * float64(n) * s.inputEnergy)
	}
	return p
}

type fftVals struct {
	vals        []complex128
	inputEnergy float64
}

// twiddle returns the DIT butterfly factor exp(-i*pi*off/half).
func twiddle(off, half int) complex128 {
	return cmplx.Exp(complex(0, -math.Pi*float64(off)/float64(half)))
}
