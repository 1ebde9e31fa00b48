// Package cfg recovers control-flow structure from a synthetic binary.
//
// CCProf's offline analyzer "retrieves the control flow graph (CFG) of the
// target application from the machine code and uses interval analysis to
// identify loops" (§4 of the paper, citing Havlak 1997). This package does
// the same for objfile binaries: it partitions the instruction stream into
// basic blocks, wires up successor edges, computes dominators, and builds a
// Havlak-style loop-nesting forest, which the analyzer then uses to
// attribute each sampled instruction pointer to its innermost loop.
package cfg

import (
	"fmt"
	"sort"

	"repro/internal/objfile"
)

// Block is a basic block: a maximal straight-line instruction sequence.
type Block struct {
	ID    int
	Start uint64 // address of first instruction
	End   uint64 // one past last instruction
	Succs []int
	Preds []int
}

// Contains reports whether addr lies within the block.
func (b *Block) Contains(addr uint64) bool { return addr >= b.Start && addr < b.End }

func (b *Block) String() string {
	return fmt.Sprintf("B%d[%#x,%#x) -> %v", b.ID, b.Start, b.End, b.Succs)
}

// Graph is the control-flow graph of one binary. Block 0 is the entry.
//
// A Graph owns reusable storage: Rebuild reconstructs it for a new binary
// without reallocating block, edge, or loop-analysis state whose capacity
// already suffices. Blocks, edge lists, and any Forest returned by FindLoops
// point into that storage and are valid only until the next Rebuild (or
// FindLoops) on the same Graph — callers that pool Graphs must copy out
// anything they keep.
type Graph struct {
	Bin    *objfile.Binary
	Blocks []*Block

	starts []uint64 // sorted block start addresses, parallel to Blocks order by Start
	order  []int    // block IDs sorted by Start

	// Reusable slabs. blockSlab backs Blocks; leaders and instrBlk are dense
	// per-instruction-index maps (instructions are contiguous at InstrSize
	// spacing, so addr <-> index is pure arithmetic); edges is the single
	// backing array every Succs and Preds slice is carved from.
	blockSlab []Block
	leaders   []bool
	instrBlk  []int32
	edges     []int
	succCnt   []int32
	predCnt   []int32

	havlak havlakScratch
}

// Build partitions bin's instructions into basic blocks and connects them.
// It returns an error for an empty binary or a branch to a nonexistent
// instruction. Build allocates a fresh Graph; sweeps that analyze many
// binaries should pool Graphs and call Rebuild instead.
func Build(bin *objfile.Binary) (*Graph, error) {
	g := &Graph{}
	if err := g.Rebuild(bin); err != nil {
		return nil, err
	}
	return g, nil
}

// Rebuild reconstructs the graph for bin in place, reusing the Graph's
// storage. The result is indistinguishable from a freshly Built graph; only
// the allocation behavior differs.
func (g *Graph) Rebuild(bin *objfile.Binary) error {
	if len(bin.Instrs) == 0 {
		return fmt.Errorf("cfg: binary %q has no instructions", bin.Name)
	}
	if err := bin.Validate(); err != nil {
		return fmt.Errorf("cfg: %w", err)
	}
	g.Bin = bin

	// Instructions are contiguous at InstrSize spacing (Validate enforces
	// it), so instruction indices replace the address-keyed maps of the
	// classical construction.
	n := len(bin.Instrs)
	base := bin.Instrs[0].Addr
	idx := func(addr uint64) int { return int((addr - base) / objfile.InstrSize) }

	// Identify leaders: the first instruction, every branch target, and the
	// instruction after any control transfer.
	leaders := resizeBools(&g.leaders, n)
	leaders[0] = true
	for i, in := range bin.Instrs {
		switch in.Kind {
		case objfile.Branch, objfile.CondBranch:
			t := idx(in.Target)
			if t < 0 || t >= n {
				return fmt.Errorf("cfg: control transfer from %#x to non-leader %#x", in.Addr, in.Target)
			}
			leaders[t] = true
			if i+1 < n {
				leaders[i+1] = true
			}
		case objfile.Ret:
			if i+1 < n {
				leaders[i+1] = true
			}
		}
	}

	// Carve the blocks. They are created in address order, so the by-start
	// lookup order is the identity permutation.
	nblocks := 0
	for i := 0; i < n; i++ {
		if leaders[i] {
			nblocks++
		}
	}
	if cap(g.blockSlab) < nblocks {
		g.blockSlab = make([]Block, nblocks)
	}
	blocks := g.blockSlab[:nblocks]
	g.Blocks = resizeBlockPtrs(&g.Blocks, nblocks)
	instrBlk := resizeInt32s(&g.instrBlk, n)
	bi := -1
	for i, in := range bin.Instrs {
		if leaders[i] {
			bi++
			blocks[bi] = Block{ID: bi, Start: in.Addr}
			g.Blocks[bi] = &blocks[bi]
		}
		blocks[bi].End = in.Addr + objfile.InstrSize
		instrBlk[i] = int32(bi)
	}

	// Wire successors with counted carving: enumerate each block's outgoing
	// edges twice — once to size the per-block Succs/Preds lists, once to
	// fill them — so a single backing array replaces per-block appends. The
	// enumeration order matches the classical construction (branch target
	// first, then fallthrough), preserving edge order exactly. edgeTargets
	// is a plain function (no closures on this path: Rebuild runs once per
	// analyzed binary, and sweeps analyze thousands).
	succCnt := resizeInt32s(&g.succCnt, nblocks)
	predCnt := resizeInt32s(&g.predCnt, nblocks)
	for bi := range blocks {
		d1, d2 := edgeTargets(bin, instrBlk, base, &blocks[bi])
		if d1 >= 0 {
			succCnt[bi]++
			predCnt[d1]++
		}
		if d2 >= 0 {
			succCnt[bi]++
			predCnt[d2]++
		}
	}
	total := 0
	for i := range succCnt {
		total += int(succCnt[i]) + int(predCnt[i])
	}
	if cap(g.edges) < total {
		g.edges = make([]int, total)
	}
	edges := g.edges[:0]
	for bi := range blocks {
		s, p := int(succCnt[bi]), int(predCnt[bi])
		off := len(edges)
		blocks[bi].Succs = edges[off : off : off+s]
		edges = edges[:off+s]
		off = len(edges)
		blocks[bi].Preds = edges[off : off : off+p]
		edges = edges[:off+p]
	}
	for bi := range blocks {
		d1, d2 := edgeTargets(bin, instrBlk, base, &blocks[bi])
		if d1 >= 0 {
			blocks[bi].Succs = append(blocks[bi].Succs, d1)
			blocks[d1].Preds = append(blocks[d1].Preds, bi)
		}
		if d2 >= 0 {
			blocks[bi].Succs = append(blocks[bi].Succs, d2)
			blocks[d2].Preds = append(blocks[d2].Preds, bi)
		}
	}

	g.order = resizeInts(&g.order, nblocks)
	g.starts = resizeUint64s(&g.starts, nblocks)
	for i := range blocks {
		g.order[i] = i
		g.starts[i] = blocks[i].Start
	}
	return nil
}

// edgeTargets returns the successor block indices of b in edge order
// (branch target first, then fallthrough), or -1 for absent slots.
func edgeTargets(bin *objfile.Binary, instrBlk []int32, base uint64, b *Block) (int, int) {
	n := len(bin.Instrs)
	endIdx := int((b.End - base) / objfile.InstrSize)
	last := bin.Instrs[endIdx-1]
	d1, d2 := -1, -1
	switch last.Kind {
	case objfile.Branch:
		d1 = int(instrBlk[(last.Target-base)/objfile.InstrSize])
	case objfile.CondBranch:
		d1 = int(instrBlk[(last.Target-base)/objfile.InstrSize])
		if endIdx < n {
			d2 = int(instrBlk[endIdx])
		}
	case objfile.Ret:
		// no successors
	default:
		if endIdx < n {
			d1 = int(instrBlk[endIdx])
		}
	}
	return d1, d2
}

func resizeBools(s *[]bool, n int) []bool {
	if cap(*s) < n {
		*s = make([]bool, n)
	} else {
		*s = (*s)[:n]
		for i := range *s {
			(*s)[i] = false
		}
	}
	return *s
}

func resizeInt32s(s *[]int32, n int) []int32 {
	if cap(*s) < n {
		*s = make([]int32, n)
	} else {
		*s = (*s)[:n]
		for i := range *s {
			(*s)[i] = 0
		}
	}
	return *s
}

func resizeInts(s *[]int, n int) []int {
	if cap(*s) < n {
		*s = make([]int, n)
	} else {
		*s = (*s)[:n]
	}
	return *s
}

func resizeUint64s(s *[]uint64, n int) []uint64 {
	if cap(*s) < n {
		*s = make([]uint64, n)
	} else {
		*s = (*s)[:n]
	}
	return *s
}

func resizeBlockPtrs(s *[]*Block, n int) []*Block {
	if cap(*s) < n {
		*s = make([]*Block, n)
	} else {
		*s = (*s)[:n]
	}
	return *s
}

// BlockAt returns the basic block containing addr.
func (g *Graph) BlockAt(addr uint64) (*Block, bool) {
	i := sort.Search(len(g.starts), func(i int) bool { return g.starts[i] > addr })
	if i == 0 {
		return nil, false
	}
	b := g.Blocks[g.order[i-1]]
	if b.Contains(addr) {
		return b, true
	}
	return nil, false
}
