package alloc

import "fmt"

// Matrix2D is the address layout of a row-major 2-D array with an optional
// per-row pad, the optimization knob every padding case study in the paper
// turns (e.g. 32 bytes per row for ADI, 64 bytes for symmetrization).
//
// Element (i, j) lives at Start + i*RowStride + j*Elem. Only addresses are
// computed; no element storage exists.
type Matrix2D struct {
	Block
	Rows, Cols int
	Elem       uint64 // element size in bytes
	RowPad     uint64 // extra bytes appended to each row
	rowStride  uint64 // Cols*Elem + RowPad, fixed at construction
}

// NewMatrix2D reserves a rows x cols matrix of elem-byte elements with
// rowPad extra bytes per row in the arena.
func NewMatrix2D(a *Arena, name string, rows, cols int, elem, rowPad uint64) *Matrix2D {
	if rows <= 0 || cols <= 0 || elem == 0 {
		panic(fmt.Sprintf("alloc: invalid matrix %s: %dx%d elem=%d", name, rows, cols, elem))
	}
	m := &Matrix2D{Rows: rows, Cols: cols, Elem: elem, RowPad: rowPad, rowStride: uint64(cols)*elem + rowPad}
	m.Block = a.Alloc(name, uint64(rows)*m.rowStride, 64)
	return m
}

// RowStride returns the byte distance between the starts of adjacent rows.
func (m *Matrix2D) RowStride() uint64 { return m.rowStride }

// At returns the address of element (i, j). It is the emission hot path
// and does no bounds checking.
func (m *Matrix2D) At(i, j int) uint64 {
	return m.Start + uint64(i)*m.rowStride + uint64(j)*m.Elem
}

// Matrix3D is the row-major address layout of a 3-D array with optional pads
// after the innermost (dim 2) and middle (dim 1) dimensions, as used by the
// HimenoBMT and Kripke case studies.
//
// Element (i, j, k) lives at
// Start + i*PlaneStride + j*RowStride + k*Elem.
type Matrix3D struct {
	Block
	Ni, Nj, Nk  int
	Elem        uint64
	RowPad      uint64 // extra bytes after each k-row
	PlanePad    uint64 // extra bytes after each (j,k) plane
	rowStride   uint64 // Nk*Elem + RowPad, fixed at construction
	planeStride uint64 // Nj*rowStride + PlanePad, fixed at construction
}

// NewMatrix3D reserves an ni x nj x nk array of elem-byte elements.
func NewMatrix3D(a *Arena, name string, ni, nj, nk int, elem, rowPad, planePad uint64) *Matrix3D {
	if ni <= 0 || nj <= 0 || nk <= 0 || elem == 0 {
		panic(fmt.Sprintf("alloc: invalid 3d matrix %s: %dx%dx%d elem=%d", name, ni, nj, nk, elem))
	}
	rowStride := uint64(nk)*elem + rowPad
	m := &Matrix3D{Ni: ni, Nj: nj, Nk: nk, Elem: elem, RowPad: rowPad, PlanePad: planePad,
		rowStride: rowStride, planeStride: uint64(nj)*rowStride + planePad}
	m.Block = a.Alloc(name, uint64(ni)*m.planeStride, 64)
	return m
}

// RowStride returns the byte distance between adjacent j indices.
func (m *Matrix3D) RowStride() uint64 { return m.rowStride }

// PlaneStride returns the byte distance between adjacent i indices.
func (m *Matrix3D) PlaneStride() uint64 { return m.planeStride }

// At returns the address of element (i, j, k).
func (m *Matrix3D) At(i, j, k int) uint64 {
	return m.Start + uint64(i)*m.planeStride + uint64(j)*m.rowStride + uint64(k)*m.Elem
}

// Vector is the address layout of a 1-D array.
type Vector struct {
	Block
	N    int
	Elem uint64
}

// NewVector reserves an n-element vector of elem-byte elements.
func NewVector(a *Arena, name string, n int, elem uint64) *Vector {
	if n <= 0 || elem == 0 {
		panic(fmt.Sprintf("alloc: invalid vector %s: n=%d elem=%d", name, n, elem))
	}
	v := &Vector{N: n, Elem: elem}
	v.Block = a.Alloc(name, uint64(n)*elem, 64)
	return v
}

// At returns the address of element i.
func (v *Vector) At(i int) uint64 { return v.Start + uint64(i)*v.Elem }
