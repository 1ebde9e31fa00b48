// Package alloc provides a simulated heap for the workloads.
//
// CCProf's data-centric attribution works by recording every memory
// allocation (start address, extent, allocation site) during the online
// phase and mapping sampled miss addresses back to the covering allocation
// offline. The workloads in this repository do not touch real memory for
// their simulated arrays; instead they reserve address ranges from an Arena,
// which plays the role of libmonitor's intercepted malloc: it hands out
// addresses and keeps the allocation log the offline analyzer consumes.
//
// The arena is also where padding optimizations live: a Matrix2D with a row
// pad of 64 bytes occupies exactly the address range the padded C program
// would, so the cache-set mapping change the paper exploits (Figure 2-c)
// falls out of ordinary address arithmetic.
package alloc

import (
	"fmt"
	"sort"
)

// Block describes one allocation: a named, contiguous address range.
type Block struct {
	Name  string // allocation site / data-structure name, e.g. "reference"
	Start uint64 // first byte
	Size  uint64 // extent in bytes
}

// End returns one past the last byte of the block.
func (b Block) End() uint64 { return b.Start + b.Size }

// Contains reports whether addr falls inside the block.
func (b Block) Contains(addr uint64) bool { return addr >= b.Start && addr < b.End() }

func (b Block) String() string {
	return fmt.Sprintf("%s [%#x,%#x) %d bytes", b.Name, b.Start, b.End(), b.Size)
}

// Arena hands out non-overlapping address ranges and records the allocation
// log. The base address is deliberately non-zero so address zero never
// aliases valid data.
type Arena struct {
	next   uint64
	blocks []Block
}

// DefaultBase is the first address a fresh Arena allocates at. It is
// line-aligned and page-aligned, matching how real allocators place large
// arrays.
const DefaultBase = 0x10_0000

// NewArena returns an empty arena starting at DefaultBase.
func NewArena() *Arena { return &Arena{next: DefaultBase} }

// Alloc reserves size bytes aligned to align (which must be a power of two;
// 0 means 64, one cache line — the alignment glibc effectively gives large
// arrays) and records the block under name.
func (a *Arena) Alloc(name string, size uint64, align uint64) Block {
	if align == 0 {
		align = 64
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("alloc: alignment %d is not a power of two", align))
	}
	start := (a.next + align - 1) &^ (align - 1)
	a.next = start + size
	b := Block{Name: name, Start: start, Size: size}
	a.blocks = append(a.blocks, b)
	return b
}

// Gap advances the allocation cursor by n bytes without recording a block,
// simulating unrelated intervening allocations.
func (a *Arena) Gap(n uint64) { a.next += n }

// Blocks returns the allocation log in allocation order.
func (a *Arena) Blocks() []Block { return a.blocks }

// Find returns the block containing addr, if any. Lookup is O(log n) over
// the allocation log (blocks are allocated at increasing addresses).
func (a *Arena) Find(addr uint64) (Block, bool) {
	i := sort.Search(len(a.blocks), func(i int) bool { return a.blocks[i].End() > addr })
	if i < len(a.blocks) && a.blocks[i].Contains(addr) {
		return a.blocks[i], true
	}
	return Block{}, false
}

// Used returns the total bytes spanned by the arena so far, including
// alignment gaps.
func (a *Arena) Used() uint64 {
	if len(a.blocks) == 0 {
		return 0
	}
	return a.next - a.blocks[0].Start
}
