package workloads

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/objfile"
	"repro/internal/stats"
	"repro/internal/trace"
)

func init() {
	register("nw", func() *CaseStudy { return NewNW(1024, 16) })
}

// nwIPs collects the sample-relevant instruction addresses of the NW
// binary, keyed by the needle.cpp line numbers Table 4 reports.
type nwIPs struct {
	init289                        uint64 // matrix init / penalty scan
	copyIn128, copyRef138          uint64 // top-left tile copies
	comp147, wb159                 uint64 // top-left compute + writeback
	copyIn189, copyRef199          uint64 // bottom-right tile copies (Listing 1)
	comp208, wb220                 uint64 // bottom-right compute + writeback
	trace273, trace320             uint64 // traceback reads
	inLocalLd, refLocalLd, localSt uint64 // local-tile traffic
}

// NewNW builds the Rodinia Needleman-Wunsch case study (§6.1): tiled
// dynamic programming for DNA sequence alignment over two (n+1) x (n+1)
// int matrices, input_itemsets and reference. Tiles are copied into small
// local arrays, computed, and written back; the tile copies read tileSize+1
// consecutive rows whose starting sets coincide for runs of rows (the row
// stride is 4*(n+1) bytes), so both arrays hammer the same few sets — the
// inter-array conflict the paper diagnoses. The optimized variant applies
// the paper's padding: 288 bytes per input_itemsets row, 32 per reference
// row.
func NewNW(n, tileSize int) *CaseStudy {
	return &CaseStudy{
		Name:          "NW",
		Desc:          fmt.Sprintf("Rodinia Needleman-Wunsch, %dx%d ints, %d-wide tiles", n+1, n+1, tileSize),
		Original:      nwProgram(n, tileSize, 0, 0),
		Optimized:     nwProgram(n, tileSize, 288, 32),
		TargetLoop:    "needle.cpp:189",
		ProfilePeriod: 171,
		Parallel:      true,
		PadBuilder:    func(pad uint64) *Program { return nwProgram(n, tileSize, pad, pad) },
	}
}

func nwProgram(n, tileSize int, padInput, padRef uint64) *Program {
	name := "nw"
	if padInput > 0 || padRef > 0 {
		name = fmt.Sprintf("nw-pad%d-%d", padInput, padRef)
	}
	rows := n + 1

	b := objfile.NewBuilder(name)
	var ip nwIPs
	b.Func("runTest")

	// Initialization scan (needle.cpp:289 bucket): touches the whole
	// input matrix row-major once.
	b.Loop("needle.cpp", 288)
	b.Loop("needle.cpp", 289)
	ip.init289 = b.Store("needle.cpp", 290)
	b.EndLoop()
	b.EndLoop()

	emitPhase := func(lCopyIn, lCopyRef, lComp, lWB int) (in, ref, comp, wb, lin, lref, lst uint64) {
		// Tile copy: input_itemsets -> local (Listing 1 shape).
		b.Loop("needle.cpp", lCopyIn)
		in = b.Load("needle.cpp", lCopyIn+1)
		lst = b.Store("needle.cpp", lCopyIn+1)
		b.EndLoop()
		// Tile copy: reference -> local.
		b.Loop("needle.cpp", lCopyRef)
		ref = b.Load("needle.cpp", lCopyRef+1)
		b.EndLoop()
		// Compute on locals.
		b.Loop("needle.cpp", lComp)
		lin = b.Load("needle.cpp", lComp+1)
		lref = b.Load("needle.cpp", lComp+1)
		comp = b.Store("needle.cpp", lComp+2)
		b.EndLoop()
		// Write back.
		b.Loop("needle.cpp", lWB)
		wb = b.Store("needle.cpp", lWB+1)
		b.EndLoop()
		return
	}

	// Top-left wavefront phase (lines 128-159).
	b.Loop("needle.cpp", 126)
	var lin1, lref1, lst1 uint64
	ip.copyIn128, ip.copyRef138, ip.comp147, ip.wb159, lin1, lref1, lst1 = emitPhase(128, 138, 147, 159)
	b.EndLoop()

	// Bottom-right wavefront phase (lines 189-220).
	b.Loop("needle.cpp", 187)
	ip.copyIn189, ip.copyRef199, ip.comp208, ip.wb220, ip.inLocalLd, ip.refLocalLd, ip.localSt = emitPhase(189, 199, 208, 220)
	b.EndLoop()

	// Traceback (lines 273 and 320 buckets).
	b.Loop("needle.cpp", 273)
	ip.trace273 = b.Load("needle.cpp", 274)
	b.EndLoop()
	b.Loop("needle.cpp", 320)
	ip.trace320 = b.Load("needle.cpp", 321)
	b.EndLoop()

	bin := b.Finish()

	ar := alloc.NewArena()
	input := alloc.NewMatrix2D(ar, "input_itemsets", rows, rows, 4, padInput)
	ref := alloc.NewMatrix2D(ar, "reference", rows, rows, 4, padRef)
	inLocal := alloc.NewMatrix2D(ar, "input_itemsets_l", tileSize+1, tileSize+1, 4, 0)
	refLocal := alloc.NewMatrix2D(ar, "reference_l", tileSize, tileSize, 4, 0)

	nTiles := n / tileSize

	// Static access spec. The dominant traffic is the tile copies: each
	// tile reads tileSize+1 consecutive rows of both big matrices into
	// the locals. The reuse window is one tile (the inner two dims); the
	// outer two dims enumerate the nTiles x nTiles tile grid, which the
	// wavefront phases visit exactly once in total.
	rsIn, rsRef := int64(input.RowStride()), int64(ref.RowStride())
	rsL := int64(inLocal.RowStride())
	ts := tileSize
	sp := spec(name,
		acc("input_itemsets", "needle.cpp:289", input.At(0, 0), 4, 1,
			dim(rsIn, rows), dim(4, rows)),
		acc("input_itemsets", "needle.cpp:189", input.At(0, 0), 4, 2,
			dim(int64(ts)*rsIn, nTiles), dim(int64(ts)*4, nTiles), dim(rsIn, ts+1), dim(4, ts+1)),
		acc("input_itemsets_l", "needle.cpp:190", inLocal.At(0, 0), 4, 2,
			dim(0, nTiles*nTiles), dim(rsL, ts+1), dim(4, ts+1)),
		acc("reference", "needle.cpp:199", ref.At(1, 1), 4, 2,
			dim(int64(ts)*rsRef, nTiles), dim(int64(ts)*4, nTiles), dim(rsRef, ts), dim(4, ts)),
		acc("reference_l", "needle.cpp:200", refLocal.At(0, 0), 4, 2,
			dim(0, nTiles*nTiles), dim(int64(ts)*4, ts), dim(4, ts)),
		acc("input_itemsets", "needle.cpp:220", input.At(1, 1), 4, 2,
			dim(int64(ts)*rsIn, nTiles), dim(int64(ts)*4, nTiles), dim(rsIn, ts), dim(4, ts)),
	)

	// Real DP values: the kernel computes the actual alignment-score
	// matrix with the same seeded similarity scores the naive reference
	// (NWReference) uses. Element (i, j) of the address layout above
	// corresponds to inputVals[i*rows+j].
	vals := lazy(func() *nwVals {
		return &nwVals{
			ref:      nwSimilarity(n),
			input:    make([]int32, rows*rows),
			inLocal:  make([]int32, (tileSize+1)*(tileSize+1)),
			refLocal: make([]int32, tileSize*tileSize),
		}
	})

	// processTile emits the traffic of one (bx, by) tile in one phase and
	// (when compute is set) performs the tile's DP for real.
	processTile := func(sink *trace.Emitter, compute bool, bx, by int, inIP, refIP, compIP, wbIP, linIP, lrefIP, lstIP uint64) {
		var refVals, inputVals, inLocalVals, refLocalVals []int32
		if compute {
			v := vals()
			refVals, inputVals = v.ref, v.input
			inLocalVals, refLocalVals = v.inLocal, v.refLocal
		}
		r0, c0 := bx*tileSize, by*tileSize
		lw := tileSize + 1
		// Copy input tile (with halo row/column).
		for i := 0; i <= tileSize; i++ {
			for j := 0; j <= tileSize; j++ {
				sink.Ref(trace.Ref{IP: inIP, Addr: input.At(r0+i, c0+j)})
				sink.Ref(trace.Ref{IP: lstIP, Addr: inLocal.At(i, j), Write: true})
				if compute {
					inLocalVals[i*lw+j] = inputVals[(r0+i)*rows+(c0+j)]
				}
			}
		}
		// Copy reference tile.
		for i := 0; i < tileSize; i++ {
			for j := 0; j < tileSize; j++ {
				sink.Ref(trace.Ref{IP: refIP, Addr: ref.At(r0+i+1, c0+j+1)})
				sink.Ref(trace.Ref{IP: lstIP, Addr: refLocal.At(i, j), Write: true})
				if compute {
					refLocalVals[i*tileSize+j] = refVals[(r0+i+1)*rows+(c0+j+1)]
				}
			}
		}
		// Compute on locals (reads three DP neighbours + reference).
		for i := 1; i <= tileSize; i++ {
			for j := 1; j <= tileSize; j++ {
				sink.Ref(trace.Ref{IP: linIP, Addr: inLocal.At(i-1, j-1)})
				sink.Ref(trace.Ref{IP: linIP, Addr: inLocal.At(i-1, j)})
				sink.Ref(trace.Ref{IP: linIP, Addr: inLocal.At(i, j-1)})
				sink.Ref(trace.Ref{IP: lrefIP, Addr: refLocal.At(i-1, j-1)})
				sink.Ref(trace.Ref{IP: compIP, Addr: inLocal.At(i, j), Write: true})
				if compute {
					inLocalVals[i*lw+j] = nwCell(
						inLocalVals[(i-1)*lw+(j-1)],
						inLocalVals[(i-1)*lw+j],
						inLocalVals[i*lw+(j-1)],
						refLocalVals[(i-1)*tileSize+(j-1)])
				}
			}
		}
		// Write the tile back.
		for i := 1; i <= tileSize; i++ {
			for j := 1; j <= tileSize; j++ {
				sink.Ref(trace.Ref{IP: wbIP, Addr: input.At(r0+i, c0+j), Write: true})
				if compute {
					inputVals[(r0+i)*rows+(c0+j)] = inLocalVals[i*lw+j]
				}
			}
		}
	}

	p := &Program{
		Name:   name,
		Binary: bin,
		Arena:  ar,
		Spec:   sp,
		runThread: func(tid, threads int, sink *trace.Emitter) {
			compute := threads == 1
			var inputVals []int32
			if compute {
				inputVals = vals().input
			}
			// Initialization scan, partitioned by rows: zero the matrix
			// and lay down the gap penalties on the boundary.
			lo, hi := span(rows, tid, threads)
			for i := lo; i < hi; i++ {
				for j := 0; j < rows; j++ {
					sink.Ref(trace.Ref{IP: ip.init289, Addr: input.At(i, j), Write: true})
					if compute {
						switch {
						case i == 0:
							inputVals[i*rows+j] = int32(-j) * nwPenalty
						case j == 0:
							inputVals[i*rows+j] = int32(-i) * nwPenalty
						default:
							inputVals[i*rows+j] = 0
						}
					}
				}
			}
			// Top-left wavefronts: diagonals of tiles, tiles on a
			// diagonal partitioned across threads.
			for d := 0; d < nTiles; d++ {
				tlo, thi := span(d+1, tid, threads)
				for k := tlo; k < thi; k++ {
					processTile(sink, compute, d-k, k,
						ip.copyIn128, ip.copyRef138, ip.comp147, ip.wb159,
						lin1, lref1, lst1)
				}
			}
			// Bottom-right wavefronts.
			for d := nTiles - 2; d >= 0; d-- {
				tlo, thi := span(d+1, tid, threads)
				for k := tlo; k < thi; k++ {
					processTile(sink, compute, nTiles-1-(d-k), nTiles-1-k,
						ip.copyIn189, ip.copyRef199, ip.comp208, ip.wb220,
						ip.inLocalLd, ip.refLocalLd, ip.localSt)
				}
			}
			// Traceback on thread 0: walk the anti-diagonal.
			if tid == 0 {
				for i, j := n, n; i > 0 && j > 0; i, j = i-1, j-1 {
					sink.Ref(trace.Ref{IP: ip.trace273, Addr: input.At(i, j)})
					sink.Ref(trace.Ref{IP: ip.trace320, Addr: input.At(i-1, j-1)})
				}
			}
		},
	}
	p.Check = func() float64 { return float64(vals().input[n*rows+n]) }
	return p
}

type nwVals struct{ ref, input, inLocal, refLocal []int32 }

// nwPenalty is the linear gap penalty (Rodinia's default is 10).
const nwPenalty = 10

// nwCell is the Needleman-Wunsch recurrence.
func nwCell(diag, up, left, sim int32) int32 {
	v := diag + sim
	if w := up - nwPenalty; w > v {
		v = w
	}
	if w := left - nwPenalty; w > v {
		v = w
	}
	return v
}

// nwSimilarity generates the deterministic similarity matrix (Rodinia
// derives it from random sequences through BLOSUM62; values in [-4, 10]).
func nwSimilarity(n int) []int32 {
	rows := n + 1
	rng := stats.NewRand(2024)
	sim := make([]int32, rows*rows)
	for i := 1; i < rows; i++ {
		for j := 1; j < rows; j++ {
			sim[i*rows+j] = int32(rng.Intn(15)) - 4
		}
	}
	return sim
}

// NWReference computes the alignment score with a naive, untiled DP over
// the same similarity matrix — the ground truth for the tiled kernel.
func NWReference(n int) int32 {
	rows := n + 1
	sim := nwSimilarity(n)
	m := make([]int32, rows*rows)
	for i := 1; i < rows; i++ {
		m[i*rows] = int32(-i) * nwPenalty
	}
	for j := 1; j < rows; j++ {
		m[j] = int32(-j) * nwPenalty
	}
	for i := 1; i < rows; i++ {
		for j := 1; j < rows; j++ {
			m[i*rows+j] = nwCell(m[(i-1)*rows+(j-1)], m[(i-1)*rows+j], m[i*rows+(j-1)], sim[i*rows+j])
		}
	}
	return m[n*rows+n]
}
