package workloads

import (
	"math/cmplx"

	"repro/internal/stats"
)

// Naive reference implementations the compute tests compare the kernels'
// results against.

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

// KripkeReference computes the particle total naively for verification.
func KripkeReference(zones, directions, groups int) float64 {
	psi, vol, w := kripkeValues(zones, directions, groups)
	var part float64
	for g := 0; g < groups; g++ {
		for d := 0; d < directions; d++ {
			for z := 0; z < zones; z++ {
				part += w[d] * psi[(g*directions+d)*zones+z] * vol[z]
			}
		}
	}
	return part
}

// TinyDNNReference computes the layer's activations naively for
// verification: a[i] = sum_c W[c][i] * in[c] with the same seeded values.
func TinyDNNReference(in, out int) []float32 {
	wVals := make([]float32, in*out)
	inVals := make([]float32, in)
	rng := stats.NewRand(777)
	for i := range wVals {
		wVals[i] = float32(rng.Float64()) - 0.5
	}
	for i := range inVals {
		inVals[i] = float32(rng.Float64())
	}
	a := make([]float32, out)
	for i := 0; i < out; i++ {
		for c := 0; c < in; c++ {
			a[i] += wVals[c*out+i] * inVals[c]
		}
	}
	return a
}

// FFTForward performs an in-place radix-2 decimation-in-time pass over x
// (len must be a power of two). Fed natural-order input it computes the
// DFT of the bit-reversed input; FFTInverse exactly undoes it.
func FFTForward(x []complex128) {
	n := len(x)
	for half := 1; half < n; half <<= 1 {
		step := half << 1
		for base := 0; base < n; base += step {
			for off := 0; off < half; off++ {
				i, j := base+off, base+off+half
				w := twiddle(off, half)
				a, b := x[i], x[j]
				t := w * b
				x[i] = a + t
				x[j] = a - t
			}
		}
	}
}

// FFTInverse exactly inverts FFTForward: the same stages in reverse order
// with conjugated twiddles and a half scale per stage.
func FFTInverse(x []complex128) {
	n := len(x)
	for half := n / 2; half >= 1; half >>= 1 {
		step := half << 1
		for base := 0; base < n; base += step {
			for off := 0; off < half; off++ {
				i, j := base+off, base+off+half
				w := cmplx.Conj(twiddle(off, half))
				a, b := x[i], x[j]
				x[i] = (a + b) / 2
				x[j] = w * (a - b) / 2
			}
		}
	}
}

// BitReverse returns i bit-reversed within log2(n) bits, the permutation
// relating FFTForward's output order to the natural DFT.
func BitReverse(i, n int) int {
	r := 0
	for n > 1 {
		r = r<<1 | i&1
		i >>= 1
		n >>= 1
	}
	return r
}
