package specgen

import (
	"fmt"
	"go/ast"
)

// value is the abstract domain of the interpreter. Concrete scalars are
// *affine with no terms (so loop arithmetic needs no case split); strings
// and bools stay concrete; everything data-dependent is vUnknown with the
// first cause attached.
type value interface{}

type (
	vBool bool
	vStr  string

	// vUnknown taints anything the extractor cannot track affinely.
	vUnknown struct{ reason string }

	// vTuple carries multi-value returns and assignments.
	vTuple []value
)

func unknown(reason string) vUnknown { return vUnknown{reason: reason} }

func vInt(c int64) *affine { return aConst(c) }

// asAffine views v as an affine expression when possible.
func asAffine(v value) (*affine, bool) {
	a, ok := v.(*affine)
	return a, ok
}

// asConcrete views v as a concrete int64.
func asConcrete(v value) (int64, bool) {
	if a, ok := v.(*affine); ok && a.isConst() {
		return a.c0, true
	}
	return 0, false
}

func whyUnknown(vs ...value) (string, bool) {
	for _, v := range vs {
		if u, ok := v.(vUnknown); ok {
			return u.reason, true
		}
	}
	return "", false
}

// vSlice models slices and arrays. elems non-nil means element values are
// tracked individually (composite literals, small setup arrays); a dirty
// slice has had a store at a symbolic index, so reads return vUnknown.
type vSlice struct {
	length *affine
	elems  []value
	dirty  bool
	why    string // first reason the slice went dirty
}

// vStruct models struct values (and pointers to them: the interpreter is
// reference-semantics throughout, which is safe because the workloads
// never copy the structs they mutate).
type vStruct struct {
	typeName string
	fields   map[string]value
}

func newStruct(typeName string) *vStruct {
	return &vStruct{typeName: typeName, fields: map[string]value{}}
}

// vClosure is a function literal (or declared function) plus its
// environment. recv carries the method receiver for declared methods.
type vClosure struct {
	fn   *ast.FuncType
	body *ast.BlockStmt
	env  *scope
	name string
}

// arity is the number of parameters the closure declares.
func (c *vClosure) arity() int {
	n := 0
	if c.fn.Params != nil {
		for _, f := range c.fn.Params.List {
			n += max(len(f.Names), 1)
		}
	}
	return n
}

// scope is one lexical environment frame. Variables live in cells so that
// closures share rebinding with their defining scope, matching Go.
type scope struct {
	parent *scope
	vars   map[string]*cell
}

type cell struct{ v value }

func newScope(parent *scope) *scope {
	return &scope{parent: parent, vars: map[string]*cell{}}
}

func (s *scope) lookup(name string) (*cell, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if c, ok := sc.vars[name]; ok {
			return c, true
		}
	}
	return nil, false
}

func (s *scope) define(name string, v value) *cell {
	c := &cell{v: v}
	if name != "_" {
		s.vars[name] = c
	}
	return c
}

// ---- models of the runtime packages -----------------------------------
//
// The models below replicate the address arithmetic of internal/alloc and
// the IP bookkeeping of internal/objfile exactly, so the extracted bases
// and strides are the numbers the real program computes. They are small
// on purpose: the arena hands out the same 64-byte-aligned addresses, the
// builder hands out unique IPs that remember their innermost loop.

// vArena mirrors alloc.Arena.
type vArena struct {
	next   uint64
	blocks []vBlock
}

type vBlock struct {
	name  string
	start uint64
	size  uint64
}

const arenaDefaultBase = 0x10_0000 // alloc.DefaultBase

func newArena() *vArena { return &vArena{next: arenaDefaultBase} }

func (a *vArena) alloc(name string, size uint64, align uint64) (vBlock, error) {
	if align == 0 {
		align = 64
	}
	if align&(align-1) != 0 {
		return vBlock{}, fmt.Errorf("specgen: arena alignment %d not a power of two", align)
	}
	start := (a.next + align - 1) &^ (align - 1)
	a.next = start + size
	b := vBlock{name: name, start: start, size: size}
	a.blocks = append(a.blocks, b)
	return b, nil
}

func (a *vArena) find(addr uint64) (vBlock, bool) {
	for _, b := range a.blocks {
		if addr >= b.start && addr < b.start+b.size {
			return b, true
		}
	}
	return vBlock{}, false
}

// vMatrix2D mirrors alloc.Matrix2D: At(i,j) = start + i·rowStride + j·elem.
type vMatrix2D struct {
	block      vBlock
	rows, cols int64
	elem       int64
	rowPad     int64
}

func (m *vMatrix2D) rowStride() int64 { return m.cols*m.elem + m.rowPad }

func (m *vMatrix2D) at(i, j *affine) *affine {
	return aAdd(aConst(int64(m.block.start)),
		aAdd(aScale(i, m.rowStride()), aScale(j, m.elem)))
}

// vMatrix3D mirrors alloc.Matrix3D.
type vMatrix3D struct {
	block      vBlock
	ni, nj, nk int64
	elem       int64
	rowPad     int64
	planePad   int64
}

func (m *vMatrix3D) rowStride() int64   { return m.nk*m.elem + m.rowPad }
func (m *vMatrix3D) planeStride() int64 { return m.nj*m.rowStride() + m.planePad }

func (m *vMatrix3D) at(i, j, k *affine) *affine {
	return aAdd(aConst(int64(m.block.start)),
		aAdd(aScale(i, m.planeStride()),
			aAdd(aScale(j, m.rowStride()), aScale(k, m.elem))))
}

// vVector mirrors alloc.Vector.
type vVector struct {
	block vBlock
	n     int64
	elem  int64
}

func (v *vVector) at(i *affine) *affine {
	return aAdd(aConst(int64(v.block.start)), aScale(i, v.elem))
}

// vBuilder mirrors objfile.Builder closely enough for extraction: every
// Load/Store returns a fresh vIP remembering its site and the loop stack
// that was open at emission, which is exactly the loop attribution the
// offline analyzer later recovers from the binary.
type vBuilder struct {
	nextIP    uint64
	loopStack []string // "file:line"
	ips       []*vIP
}

type vIP struct {
	id    uint64
	file  string
	line  int64
	write bool
	loop  string // innermost enclosing builder loop, "" at top level
}

func newBuilder() *vBuilder { return &vBuilder{nextIP: 0x400_000} }

func (b *vBuilder) emit(file string, line int64, write bool) *vIP {
	ip := &vIP{id: b.nextIP, file: file, line: line, write: write}
	b.nextIP += 4
	if n := len(b.loopStack); n > 0 {
		ip.loop = b.loopStack[n-1]
	}
	b.ips = append(b.ips, ip)
	return ip
}

func (b *vBuilder) loop(file string, line int64) {
	b.loopStack = append(b.loopStack, fmt.Sprintf("%s:%d", file, line))
	b.nextIP += 4
}

func (b *vBuilder) endLoop() {
	if len(b.loopStack) > 0 {
		b.loopStack = b.loopStack[:len(b.loopStack)-1]
	}
	b.nextIP += 4
}

// vRand models stats.Rand: every draw is data-dependent by definition.
type vRand struct{}

// vSink is the trace.Sink the extracted runThread writes into; Ref calls
// land in the interpreter's event stream.
type vSink struct{}

// vBinary and vProgramPart stand in for objfile.Binary and other opaque
// results that flow through the constructors but are never inspected.
type vOpaque struct{ kind string }
