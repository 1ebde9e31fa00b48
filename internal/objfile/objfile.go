// Package objfile defines the synthetic "machine code" the workloads compile
// their kernels into.
//
// CCProf's offline analyzer recovers loops from the profiled binary: it
// builds a control-flow graph from the machine code and applies interval
// analysis to identify loop nests, then attributes each PMU sample's
// instruction pointer to its innermost loop. To exercise that code path
// without a real disassembler, workloads in this repository describe their
// kernels as a stream of synthetic instructions — loads, stores, plain ops,
// and (conditional) branches — with a DWARF-like line table mapping each
// instruction address to a source location such as "needle.cpp:189".
//
// The Builder mirrors how a compiler lowers a loop nest: opening a loop
// emits a header block, closing it emits the conditional back edge. Nothing
// in the analyzer looks at Builder metadata; loops are re-discovered from
// the instruction stream by package cfg, exactly as the paper recovers them
// from optimized executables.
package objfile

import (
	"fmt"
	"sort"
	"strconv"
)

// Kind classifies a synthetic instruction.
type Kind uint8

// Instruction kinds. Fallthrough applies to every kind except Branch and
// Ret, which never fall through; CondBranch both falls through and jumps.
const (
	Op         Kind = iota // non-memory ALU work
	Load                   // memory read; may appear as a sample IP
	Store                  // memory write; may appear as a sample IP
	Branch                 // unconditional jump to Target
	CondBranch             // conditional jump to Target, else fallthrough
	Call                   // call; treated as falling through (returns)
	Ret                    // function return; no successors
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Op:
		return "op"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "jmp"
	case CondBranch:
		return "jcc"
	case Call:
		return "call"
	case Ret:
		return "ret"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// InstrSize is the fixed encoded size of every synthetic instruction.
const InstrSize = 4

// Instruction is one synthetic machine instruction.
type Instruction struct {
	Addr   uint64
	Kind   Kind
	Target uint64 // jump target for Branch/CondBranch
}

func (in Instruction) String() string {
	switch in.Kind {
	case Branch, CondBranch:
		return fmt.Sprintf("%#x: %s -> %#x", in.Addr, in.Kind, in.Target)
	default:
		return fmt.Sprintf("%#x: %s", in.Addr, in.Kind)
	}
}

// SourceLoc is a file:line pair from the line table.
type SourceLoc struct {
	File string
	Line int
}

// IsZero reports whether the location is unset.
func (s SourceLoc) IsZero() bool { return s.File == "" && s.Line == 0 }

func (s SourceLoc) String() string {
	if s.IsZero() {
		return "??:0"
	}
	return s.File + ":" + strconv.Itoa(s.Line)
}

// Func is a named contiguous range of instructions.
type Func struct {
	Name  string
	Start uint64 // address of first instruction
	End   uint64 // one past the last instruction
}

// Binary is a complete synthetic executable: a sorted instruction stream,
// its functions, and the line table.
type Binary struct {
	Name   string
	Instrs []Instruction // sorted by Addr, contiguous at InstrSize spacing
	Funcs  []Func

	lines map[uint64]SourceLoc
}

// InstrAt returns the instruction at addr.
func (b *Binary) InstrAt(addr uint64) (Instruction, bool) {
	i := sort.Search(len(b.Instrs), func(i int) bool { return b.Instrs[i].Addr >= addr })
	if i < len(b.Instrs) && b.Instrs[i].Addr == addr {
		return b.Instrs[i], true
	}
	return Instruction{}, false
}

// LineFor returns the source location of the instruction at addr, or a zero
// SourceLoc if addr is unknown.
func (b *Binary) LineFor(addr uint64) SourceLoc { return b.lines[addr] }

// FuncFor returns the function containing addr, if any.
func (b *Binary) FuncFor(addr uint64) (Func, bool) {
	if i := b.FuncIndex(addr); i >= 0 {
		return b.Funcs[i], true
	}
	return Func{}, false
}

// FuncIndex returns the index in Funcs of the function containing addr,
// or -1 when no function contains it.
func (b *Binary) FuncIndex(addr uint64) int {
	for i, f := range b.Funcs {
		if addr >= f.Start && addr < f.End {
			return i
		}
	}
	return -1
}

// Validate checks structural invariants: instructions sorted and contiguous,
// branch targets in range, functions non-overlapping. Workload constructors
// call this in tests.
func (b *Binary) Validate() error {
	for i, in := range b.Instrs {
		if i > 0 && in.Addr != b.Instrs[i-1].Addr+InstrSize {
			return fmt.Errorf("objfile %s: instruction %d at %#x not contiguous after %#x",
				b.Name, i, in.Addr, b.Instrs[i-1].Addr)
		}
		if in.Kind == Branch || in.Kind == CondBranch {
			if _, ok := b.InstrAt(in.Target); !ok {
				return fmt.Errorf("objfile %s: branch at %#x targets unknown address %#x",
					b.Name, in.Addr, in.Target)
			}
		}
	}
	for i, f := range b.Funcs {
		if f.End <= f.Start {
			return fmt.Errorf("objfile %s: function %s has empty range", b.Name, f.Name)
		}
		if i > 0 && f.Start < b.Funcs[i-1].End {
			return fmt.Errorf("objfile %s: function %s overlaps %s", b.Name, f.Name, b.Funcs[i-1].Name)
		}
	}
	return nil
}
