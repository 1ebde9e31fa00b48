package workloads

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/objfile"
	"repro/internal/stats"
	"repro/internal/trace"
)

func init() {
	register("symmetrization", func() *CaseStudy { return NewSymmetrizationReps(256, 2) })
}

// NewSymmetrization builds the §2.1 motivating kernel: symmetrization of an
// n x n double matrix, A[i][j] = (A[i][j] + A[j][i]) / 2, the computation
// pattern of quantum-chemistry codes like NWChem. The row access A[i][j]
// streams through sets while the column access A[j][i] strides by a full
// row; when the row size is a multiple of the cache size divided by
// associativity, the column walk hammers a handful of sets. The optimized
// variant appends a 64-byte pad to each row (Figure 2-c), shifting
// successive rows across sets.
func NewSymmetrization(n int) *CaseStudy { return NewSymmetrizationReps(n, 1) }

// NewSymmetrizationReps repeats the kernel reps times (NWChem-style codes
// symmetrize repeatedly, amortizing cold misses over the reuse the
// conflicts destroy).
func NewSymmetrizationReps(n, reps int) *CaseStudy {
	return &CaseStudy{
		Name:          "Symmetrization",
		Desc:          fmt.Sprintf("matrix symmetrization, %dx%d doubles, %d reps (Figure 2)", n, n, reps),
		Original:      symmetrizationProgram(n, reps, 0),
		Optimized:     symmetrizationProgram(n, reps, 64),
		TargetLoop:    "sym.c:4",
		Parallel:      true,
		ProfilePeriod: 171,
		PadBuilder:    func(pad uint64) *Program { return symmetrizationProgram(n, reps, pad) },
	}
}

func symmetrizationProgram(n, reps int, pad uint64) *Program {
	name := "symmetrization"
	if pad > 0 {
		name = fmt.Sprintf("symmetrization-pad%d", pad)
	}

	b := objfile.NewBuilder(name)
	b.Func("symmetrize")
	b.Loop("sym.c", 3)           // for i
	b.Loop("sym.c", 4)           // for j
	ldRow := b.Load("sym.c", 5)  // A[i][j]
	ldCol := b.Load("sym.c", 5)  // A[j][i]
	stRow := b.Store("sym.c", 6) // A[i][j] =
	b.EndLoop()
	b.EndLoop()
	bin := b.Finish()

	ar := alloc.NewArena()
	a := alloc.NewMatrix2D(ar, "A", n, n, 8, pad)

	// Static access spec: the row access streams, the transposed access
	// walks down a column by the full row stride (Figure 2).
	rs := int64(a.RowStride())
	sp := spec(name,
		acc("A", "sym.c:4", a.At(0, 0), 8, 1, dim(0, reps), dim(rs, n), dim(8, n)),
		acc("A", "sym.c:4", a.At(0, 0), 8, 1, dim(0, reps), dim(8, n), dim(rs, n)),
	)

	// Element storage for the real computation; the address layout above
	// decides cache behaviour, vals holds the numbers.
	vals := lazy(func() []float64 {
		v := make([]float64, n*n)
		rng := stats.NewRand(1234)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	})

	p := &Program{
		Name:   name,
		Binary: bin,
		Arena:  ar,
		Spec:   sp,
		runThread: func(tid, threads int, compute bool, sink *trace.Emitter) {
			var aVals []float64
			if compute {
				aVals = vals()
			}
			lo, hi := span(n, tid, threads)
			for r := 0; r < reps; r++ {
				for i := lo; i < hi; i++ {
					for j := 0; j < n; j++ {
						sink.Ref(trace.Ref{IP: ldRow, Addr: a.At(i, j)})
						sink.Ref(trace.Ref{IP: ldCol, Addr: a.At(j, i)})
						sink.Ref(trace.Ref{IP: stRow, Addr: a.At(i, j), Write: true})
						if compute {
							aVals[i*n+j] = (aVals[i*n+j] + aVals[j*n+i]) / 2
						}
					}
				}
			}
		},
	}
	p.Check = func() float64 {
		// Asymmetry residue: ~0 after a sequential run. (A single
		// in-place sweep already symmetrizes exactly: when (i,j) with
		// i<j is updated, (j,i) still holds its original value, and the
		// later (j,i) update uses the already-averaged A[i][j]... so we
		// report the residue rather than asserting zero; the kernel's
		// fixed point is symmetric and reps >= 2 converges.)
		aVals := vals()
		var res float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d := aVals[i*n+j] - aVals[j*n+i]
				if d < 0 {
					d = -d
				}
				res += d
			}
		}
		return res
	}
	return p
}
