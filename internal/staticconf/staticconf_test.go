package staticconf

import (
	"testing"

	"repro/internal/mem"
)

// bruteHist enumerates the full iteration space of an access and counts
// references per set — the O(Π trips) definition the convolution must match.
func bruteHist(a Access, g mem.Geometry) []uint64 {
	out := make([]uint64, g.Sets)
	var walk func(d int, addr int64)
	walk = func(d int, addr int64) {
		if d == len(a.Dims) {
			out[g.Set(uint64(addr))]++
			return
		}
		for t := 0; t < a.Dims[d].Trip; t++ {
			walk(d+1, addr+int64(t)*a.Dims[d].Stride)
		}
	}
	walk(0, int64(a.Base))
	return out
}

func TestTouchHistMatchesBruteForce(t *testing.T) {
	g := mem.MustGeometry(64, 64, 8)
	cases := []Access{
		{Array: "pow2", Base: 0x10_0000, Elem: 8,
			Dims: []Dim{{Stride: 4096, Trip: 100}}},
		{Array: "padded", Base: 0x10_0040, Elem: 8,
			Dims: []Dim{{Stride: 4128, Trip: 97}, {Stride: 8, Trip: 13}}},
		{Array: "negative", Base: 0x20_0000, Elem: 4,
			Dims: []Dim{{Stride: -520, Trip: 33}, {Stride: 12, Trip: 41}}},
		{Array: "temporal", Base: 0x10_0000, Elem: 8,
			Dims: []Dim{{Stride: 0, Trip: 5}, {Stride: 2052, Trip: 17}, {Stride: 4, Trip: 9}}},
		{Array: "wraps", Base: 0x10_0100, Elem: 8,
			Dims: []Dim{{Stride: 4100, Trip: 300}}},
		{Array: "coprime", Base: 0x10_0000, Elem: 8,
			Dims: []Dim{{Stride: 4097, Trip: 5000}}},
	}
	for _, a := range cases {
		got := touchHist(a, g)
		want := bruteHist(a, g)
		for s := range want {
			if got[s] != want[s] {
				t.Fatalf("%s: set %d: touchHist=%d brute=%d", a.Array, s, got[s], want[s])
			}
		}
	}
}

func TestStrideSetsTheorem(t *testing.T) {
	g := mem.MustGeometry(64, 64, 8) // set span 4096
	cases := []struct {
		stride int64
		trip   int
		want   int
	}{
		{4096, 100, 1},       // §2 pathology: power-of-two row size camps one set
		{8192, 100, 1},       // any multiple of the span camps too
		{4096 + 64, 100, 64}, // one line of pad: every set, once per wrap
		{2048, 100, 2},       // half the span: two sets
		{64, 100, 64},        // unit-line stride: all sets, then wraps
		{64, 10, 10},         // short walk: bounded by the trip count
		{0, 100, 1},          // degenerate stationary access
	}
	for _, c := range cases {
		if got := StrideSets(0x10_0000, c.stride, c.trip, g); got != c.want {
			t.Errorf("StrideSets(stride=%d, trip=%d) = %d, want %d", c.stride, c.trip, got, c.want)
		}
	}
}

// column returns the spec of a column walk over a rows×cols matrix of
// 8-byte elements with the given row pad: the canonical §2 pathology when
// the row size is a multiple of the set span.
func column(pad uint64, rows, cols int) *Spec {
	rowStride := int64(cols)*8 + int64(pad)
	return &Spec{
		Kernel: "column-walk",
		Accesses: []Access{{
			Array: "m", Loop: "col.c:1", Base: 0x10_0000, Elem: 8,
			Dims: []Dim{
				{Stride: 8, Trip: cols},         // outer: next column
				{Stride: rowStride, Trip: rows}, // inner: down the column
			},
			Window: 1,
		}},
	}
}

func TestAnalyzePowerOfTwoColumnWalk(t *testing.T) {
	g := mem.L1Default()
	rep, err := Analyze(column(0, 512, 512), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Conflict {
		t.Fatalf("unpadded column walk not flagged: %s", rep.Reason)
	}
	a := rep.Accesses[0]
	if !a.PowerOfTwo {
		t.Error("PowerOfTwo flag not set for stride 4096")
	}
	if !a.Camping {
		t.Error("Camping flag not set: outer stride 8 < line size keeps the set camped")
	}
	if a.StrideSets != 1 {
		t.Errorf("StrideSets = %d, want 1", a.StrideSets)
	}
	if len(rep.Overloaded) == 0 || rep.PredictedRCD > 8 {
		t.Errorf("expected few overloaded sets with short predicted RCD, got %d sets, RCD %.0f",
			len(rep.Overloaded), rep.PredictedRCD)
	}
	if rep.PredictedCF < 0.5 {
		t.Errorf("PredictedCF = %.2f, want ≥ 0.5 for a camped column walk", rep.PredictedCF)
	}

	padded, err := Analyze(column(64, 512, 512), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if padded.Conflict {
		t.Fatalf("padded column walk still flagged: %s", padded.Reason)
	}
}

func TestAnalyzeCapacityRegimeIsNotConflict(t *testing.T) {
	g := mem.L1Default()
	// Three interleaved streams whose window holds 16 lines on every set:
	// uniform over-subscription, i.e. capacity pressure, not conflicts.
	spec := &Spec{Kernel: "streams"}
	for i := 0; i < 2; i++ {
		spec.Accesses = append(spec.Accesses, Access{
			Array: "s", Loop: "s.c:1", Base: 0x10_0000 + uint64(i)*1<<20, Elem: 8,
			Dims:   []Dim{{Stride: 8, Trip: 64 * 1024}},
			Window: 1,
		})
	}
	rep, err := Analyze(spec, g, Options{WindowRefCap: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Conflict {
		t.Fatalf("uniform streaming flagged as conflict: %s", rep.Reason)
	}
	if len(rep.Overloaded) <= g.Sets/2 {
		t.Fatalf("test premise broken: expected most sets overloaded, got %d", len(rep.Overloaded))
	}
}

func TestAnalyzeValidation(t *testing.T) {
	g := mem.L1Default()
	if _, err := Analyze(nil, g, Options{}); err == nil {
		t.Error("nil spec accepted")
	}
	if _, err := Analyze(&Spec{Kernel: "empty"}, g, Options{}); err == nil {
		t.Error("empty spec accepted")
	}
	bad := &Spec{Kernel: "bad", Accesses: []Access{{Array: "a", Elem: 8, Dims: []Dim{{Stride: 8, Trip: 0}}}}}
	if _, err := Analyze(bad, g, Options{}); err == nil {
		t.Error("zero trip accepted")
	}
}
