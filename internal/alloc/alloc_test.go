package alloc

import (
	"testing"
	"testing/quick"
)

func TestArenaAllocNonOverlapping(t *testing.T) {
	a := NewArena()
	b1 := a.Alloc("a", 100, 0)
	b2 := a.Alloc("b", 200, 0)
	if b1.End() > b2.Start {
		t.Errorf("blocks overlap: %v / %v", b1, b2)
	}
	if b1.Start%64 != 0 || b2.Start%64 != 0 {
		t.Errorf("blocks not line-aligned: %#x %#x", b1.Start, b2.Start)
	}
}

func TestArenaAlignment(t *testing.T) {
	a := NewArena()
	a.Alloc("x", 7, 0) // leaves cursor misaligned
	b := a.Alloc("y", 10, 4096)
	if b.Start%4096 != 0 {
		t.Errorf("start %#x not 4096-aligned", b.Start)
	}
}

func TestArenaBadAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two alignment should panic")
		}
	}()
	NewArena().Alloc("x", 8, 3)
}

func TestArenaFind(t *testing.T) {
	a := NewArena()
	b1 := a.Alloc("first", 128, 0)
	a.Gap(1000)
	b2 := a.Alloc("second", 64, 0)

	if got, ok := a.Find(b1.Start); !ok || got.Name != "first" {
		t.Errorf("Find(start of first) = %v, %v", got, ok)
	}
	if got, ok := a.Find(b1.End() - 1); !ok || got.Name != "first" {
		t.Errorf("Find(end-1 of first) = %v, %v", got, ok)
	}
	if _, ok := a.Find(b1.End()); ok {
		t.Error("Find(one past first) should miss (gap)")
	}
	if got, ok := a.Find(b2.Start + 10); !ok || got.Name != "second" {
		t.Errorf("Find(inside second) = %v, %v", got, ok)
	}
	if _, ok := a.Find(0); ok {
		t.Error("Find(0) should miss")
	}
	if _, ok := a.Find(b2.End() + 100); ok {
		t.Error("Find past all blocks should miss")
	}
}

func TestArenaFindProperty(t *testing.T) {
	a := NewArena()
	var blocks []Block
	for i := 0; i < 20; i++ {
		blocks = append(blocks, a.Alloc("blk", uint64(i%5)*64+64, 0))
	}
	f := func(pick uint8, off uint16) bool {
		b := blocks[int(pick)%len(blocks)]
		addr := b.Start + uint64(off)%b.Size
		got, ok := a.Find(addr)
		return ok && got.Start == b.Start
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArenaUsed(t *testing.T) {
	a := NewArena()
	if a.Used() != 0 {
		t.Error("fresh arena should have Used()==0")
	}
	a.Alloc("x", 64, 0)
	a.Alloc("y", 64, 0)
	if a.Used() != 128 {
		t.Errorf("Used = %d, want 128", a.Used())
	}
}

func TestBlockContains(t *testing.T) {
	b := Block{Name: "b", Start: 100, Size: 10}
	if !b.Contains(100) || !b.Contains(109) || b.Contains(99) || b.Contains(110) {
		t.Errorf("Contains boundary misbehaviour on %v", b)
	}
}

func TestMatrix2DAddressing(t *testing.T) {
	a := NewArena()
	m := NewMatrix2D(a, "m", 4, 8, 8, 0)
	if m.RowStride() != 64 {
		t.Errorf("RowStride = %d, want 64", m.RowStride())
	}
	if m.At(0, 0) != m.Start {
		t.Error("At(0,0) != Start")
	}
	if got, want := m.At(1, 0)-m.At(0, 0), uint64(64); got != want {
		t.Errorf("row distance = %d, want %d", got, want)
	}
	if got, want := m.At(0, 1)-m.At(0, 0), uint64(8); got != want {
		t.Errorf("col distance = %d, want %d", got, want)
	}
	if m.Size != 4*64 {
		t.Errorf("Size = %d, want 256", m.Size)
	}
}

func TestMatrix2DPaddingShiftsSets(t *testing.T) {
	// The Figure 2 effect: with a 128x128 double matrix and 64 sets of 64B
	// lines, rows i and i+4 start in the same set; adding a 64B row pad
	// shifts each successive row's start by one set.
	a := NewArena()
	unpadded := NewMatrix2D(a, "u", 128, 128, 8, 0)
	padded := NewMatrix2D(a, "p", 128, 128, 8, 64)

	set := func(addr uint64) int { return int((addr >> 6) & 63) }
	if set(unpadded.At(0, 0)) != set(unpadded.At(4, 0)) {
		t.Error("unpadded rows 0 and 4 should map to the same set")
	}
	if set(padded.At(0, 0)) == set(padded.At(4, 0)) {
		t.Error("padded rows 0 and 4 should map to different sets")
	}
	// Successive padded rows shift by exactly one set: 128*8+64 = 1088 =
	// 17 lines, 17 mod 64 = 17... actually the shift is 17 sets per row.
	want := (set(padded.At(0, 0)) + 17) % 64
	if got := set(padded.At(1, 0)); got != want {
		t.Errorf("padded row 1 set = %d, want %d", got, want)
	}
}

func TestMatrix2DInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-row matrix should panic")
		}
	}()
	NewMatrix2D(NewArena(), "bad", 0, 4, 8, 0)
}

func TestMatrix3DAddressing(t *testing.T) {
	a := NewArena()
	m := NewMatrix3D(a, "m", 2, 3, 4, 8, 0, 0)
	if m.RowStride() != 32 {
		t.Errorf("RowStride = %d, want 32", m.RowStride())
	}
	if m.PlaneStride() != 96 {
		t.Errorf("PlaneStride = %d, want 96", m.PlaneStride())
	}
	if got, want := m.At(1, 2, 3), m.Start+96+64+24; got != want {
		t.Errorf("At(1,2,3) = %#x, want %#x", got, want)
	}
	if m.Size != 2*96 {
		t.Errorf("Size = %d, want 192", m.Size)
	}
}

func TestMatrix3DPads(t *testing.T) {
	a := NewArena()
	m := NewMatrix3D(a, "m", 2, 2, 2, 8, 16, 32)
	if m.RowStride() != 2*8+16 {
		t.Errorf("RowStride = %d", m.RowStride())
	}
	if m.PlaneStride() != 2*m.RowStride()+32 {
		t.Errorf("PlaneStride = %d", m.PlaneStride())
	}
}

func TestVector(t *testing.T) {
	a := NewArena()
	v := NewVector(a, "v", 10, 4)
	if v.At(0) != v.Start || v.At(9) != v.Start+36 {
		t.Errorf("vector addressing wrong: At(9)=%#x start=%#x", v.At(9), v.Start)
	}
	if v.Size != 40 {
		t.Errorf("Size = %d, want 40", v.Size)
	}
}

// Property: every element address of a matrix falls inside its block.
func TestMatrixElementsInsideBlock(t *testing.T) {
	f := func(rows, cols uint8, pad uint8) bool {
		r := int(rows)%20 + 1
		c := int(cols)%20 + 1
		a := NewArena()
		m := NewMatrix2D(a, "m", r, c, 8, uint64(pad))
		return m.Contains(m.At(0, 0)) && m.Contains(m.At(r-1, c-1)+7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
