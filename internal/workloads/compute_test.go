package workloads

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// The workloads compute their kernels for real during sequential runs;
// these tests pin the results against naive reference implementations.

func TestNWTiledMatchesReference(t *testing.T) {
	for _, n := range []int{64, 128, 256} {
		cs := NewNW(n, 16)
		cs.Original.Run(trace.Discard)
		got := int32(cs.Original.Check())
		want := NWReference(n)
		if got != want {
			t.Errorf("n=%d: tiled NW score = %d, reference = %d", n, got, want)
		}
		// The padded layout must compute the identical score (padding
		// only moves addresses, never values).
		cs.Optimized.Run(trace.Discard)
		if int32(cs.Optimized.Check()) != want {
			t.Errorf("n=%d: padded NW score = %v, want %d", n, cs.Optimized.Check(), want)
		}
	}
}

func TestKripkeInterchangeSameResult(t *testing.T) {
	cs := NewKripke(32, 16, 8)
	cs.Original.Run(trace.Discard)
	cs.Optimized.Run(trace.Discard)
	orig, opt := cs.Original.Check(), cs.Optimized.Check()
	want := KripkeReference(32, 16, 8)
	if math.Abs(orig-want) > 1e-6*math.Abs(want) {
		t.Errorf("original order: %g, reference %g", orig, want)
	}
	if math.Abs(opt-want) > 1e-6*math.Abs(want) {
		t.Errorf("interchanged order: %g, reference %g (interchange changed the result)", opt, want)
	}
}

func TestTinyDNNMatchesReference(t *testing.T) {
	cs := NewTinyDNN(64, 256, 1)
	cs.Original.Run(trace.Discard)
	ref := TinyDNNReference(64, 256)
	var want float64
	for _, v := range ref {
		want += float64(v)
	}
	got := cs.Original.Check()
	if math.Abs(got-want) > 1e-3 {
		t.Errorf("layer checksum = %g, reference %g", got, want)
	}
	// Padding must not change the numbers.
	cs.Optimized.Run(trace.Discard)
	if math.Abs(cs.Optimized.Check()-want) > 1e-3 {
		t.Errorf("padded checksum = %g, want %g", cs.Optimized.Check(), want)
	}
}

func TestSymmetrizationConverges(t *testing.T) {
	// Each in-place sweep cuts the asymmetry residue by ~4x; after 6
	// reps the matrix is within a factor of ~4^6 of symmetric.
	cs := NewSymmetrizationReps(64, 6)
	before := cs.Original.Check() // residue of the fresh random matrix
	cs.Original.Run(trace.Discard)
	after := cs.Original.Check()
	if before <= 0 {
		t.Fatal("fresh matrix should be asymmetric")
	}
	if after > before/1000 {
		t.Errorf("residue only fell %g -> %g; expected ~4^reps convergence", before, after)
	}
}

func TestCheckNilForParallelOnlyResults(t *testing.T) {
	// Running multi-threaded skips computation; Check still callable and
	// simply reflects whatever the last sequential run (or init) left.
	cs := NewSymmetrization(32)
	for tid := 0; tid < 2; tid++ {
		cs.Original.RunThread(tid, 2, trace.Discard)
	}
	_ = cs.Original.Check() // must not panic
}

func TestFFTRoundTrip(t *testing.T) {
	rng := stats.NewRand(5)
	for _, n := range []int{2, 8, 64, 256} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
			orig[i] = x[i]
		}
		FFTForward(x)
		FFTInverse(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-12 {
				t.Fatalf("n=%d: round trip diverged at %d: %v vs %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	// FFTForward on natural-order input computes the DFT of the
	// bit-reversed input.
	const n = 8
	rng := stats.NewRand(6)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64(), rng.Float64())
	}
	got := make([]complex128, n)
	copy(got, x)
	FFTForward(got)
	for k := 0; k < n; k++ {
		var want complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j*k) / float64(n)
			want += x[BitReverse(j, n)] * cmplx.Exp(complex(0, ang))
		}
		if cmplx.Abs(got[k]-want) > 1e-9 {
			t.Fatalf("bin %d: got %v, want %v", k, got[k], want)
		}
	}
}

func TestFFTProgramParseval(t *testing.T) {
	for _, cs := range []*CaseStudy{NewFFT(64), NewFFT(128)} {
		for _, p := range []*Program{cs.Original, cs.Optimized} {
			p.Run(trace.Discard)
			if ratio := p.Check(); math.Abs(ratio-1) > 1e-9 {
				t.Errorf("%s: energy ratio = %g, want 1 (Parseval)", p.Name, ratio)
			}
		}
	}
}

// TestTwiddleTable: the FFT kernel's table gives every stage's butterfly
// factor bit for bit, so the transform computes what per-butterfly
// cmplx.Exp calls did.
func TestTwiddleTable(t *testing.T) {
	same := func(a, b complex128) bool {
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
			math.Float64bits(imag(a)) == math.Float64bits(imag(b))
	}
	for n := 1; n <= 1024; n <<= 1 {
		tw := twiddleTable(n)
		if len(tw) != n/2 {
			t.Fatalf("n=%d: %d entries, want %d", n, len(tw), n/2)
		}
		for half := 1; half < n; half <<= 1 {
			stride := n / (2 * half)
			for off := 0; off < half; off++ {
				if got, want := tw[off*stride], twiddle(off, half); !same(got, want) {
					t.Fatalf("n=%d half=%d off=%d: table %v, twiddle %v", n, half, off, got, want)
				}
			}
		}
	}
	// The sequential transform keeps its bits, not just Parseval's ratio.
	cs := NewFFT(256)
	for _, p := range []*Program{cs.Original, cs.Optimized} {
		p.Run(trace.Discard)
		if got := math.Float64bits(p.Check()); got != 0x3ff0000000000009 {
			t.Errorf("%s: Check bits %#x, want 0x3ff0000000000009", p.Name, got)
		}
	}
}

func TestBitReverse(t *testing.T) {
	cases := [][3]int{{0, 8, 0}, {1, 8, 4}, {2, 8, 2}, {3, 8, 6}, {5, 8, 5}, {6, 8, 3}, {1, 2, 1}}
	for _, c := range cases {
		if got := BitReverse(c[0], c[1]); got != c[2] {
			t.Errorf("BitReverse(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
	// Property: involution.
	for i := 0; i < 64; i++ {
		if BitReverse(BitReverse(i, 64), 64) != i {
			t.Fatalf("bit reverse not an involution at %d", i)
		}
	}
}

func TestHimenoGosaDecays(t *testing.T) {
	// The Jacobi solver must make progress: the residual gosa after two
	// iterations is below the first iteration's.
	one := NewHimeno(16, 16, 32, 1)
	one.Original.Run(trace.Discard)
	g1 := one.Original.Check()

	two := NewHimeno(16, 16, 32, 2)
	two.Original.Run(trace.Discard)
	g2 := two.Original.Check()

	if g1 <= 0 {
		t.Fatalf("first-iteration gosa = %g, want positive", g1)
	}
	if g2 >= g1 {
		t.Errorf("gosa did not decay: %g -> %g", g1, g2)
	}
}

func TestHimenoPaddingPreservesValues(t *testing.T) {
	cs := NewHimeno(8, 8, 16, 2)
	cs.Original.Run(trace.Discard)
	cs.Optimized.Run(trace.Discard)
	if o, p := cs.Original.Check(), cs.Optimized.Check(); o != p {
		t.Errorf("padding changed gosa: %g vs %g", o, p)
	}
}

// Every case study's optimization must preserve the computed result (bit
// exact for same-order kernels, small FP tolerance for Kripke's
// reassociated reduction).
func TestOptimizationsPreserveSemantics(t *testing.T) {
	cases := []struct {
		cs  *CaseStudy
		tol float64
	}{
		{NewNW(128, 16), 0},
		{NewFFT(64), 1e-12},
		{NewTinyDNN(64, 256, 1), 0},
		{NewHimeno(8, 8, 16, 1), 0},
		{NewADI(64, 2), 0},
		{NewKripke(32, 16, 8), 1e-9},
		{NewSymmetrizationReps(64, 2), 0},
	}
	for _, c := range cases {
		c.cs.Original.Run(trace.Discard)
		o := c.cs.Original.Check()
		c.cs.Optimized.Run(trace.Discard)
		p := c.cs.Optimized.Check()
		diff := math.Abs(o - p)
		limit := c.tol * math.Max(math.Abs(o), 1)
		if diff > limit {
			t.Errorf("%s: optimized result %g differs from original %g", c.cs.Name, p, o)
		}
	}
}
