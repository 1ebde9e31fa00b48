package cfg

import (
	"fmt"
	"slices"

	"repro/internal/objfile"
)

// Loop is one loop in the nesting forest discovered by interval analysis.
type Loop struct {
	ID        int
	Header    *Block
	Parent    *Loop
	Children  []*Loop
	Depth     int  // 1 for top-level loops
	Reducible bool // false for irreducible regions

	// Blocks lists every block in the loop, including blocks of nested
	// loops and the header itself.
	Blocks []*Block

	// Loc is the source location of the loop header from the line table,
	// e.g. "needle.cpp:189" — the name CCProf reports loops by.
	Loc objfile.SourceLoc

	// direct lists the loop's direct member blocks (preorder numbers) that
	// are not headers of nested loops. It is scratch for fill, kept on the
	// Loop so its capacity survives Graph reuse.
	direct []int
}

// Name returns a human-readable loop identifier: its header source location
// when known, otherwise the header address.
func (l *Loop) Name() string {
	if !l.Loc.IsZero() {
		return l.Loc.String()
	}
	return fmt.Sprintf("loop@%#x", l.Header.Start)
}

func (l *Loop) String() string {
	return fmt.Sprintf("%s depth=%d blocks=%d", l.Name(), l.Depth, len(l.Blocks))
}

// Forest is the loop-nesting forest of a graph plus per-block innermost-loop
// attribution. A Forest points into its Graph's reusable loop-analysis
// storage: it is valid only until the next FindLoops or Rebuild on that
// Graph.
type Forest struct {
	Loops     []*Loop // all loops, inner loops after their parents
	innermost []*Loop // block ID -> innermost containing loop (nil if none)
	graph     *Graph
}

// InnermostAt returns the innermost loop containing the instruction at addr,
// or nil when addr is not inside any loop (or unknown).
func (f *Forest) InnermostAt(addr uint64) *Loop {
	b, ok := f.graph.BlockAt(addr)
	if !ok {
		return nil
	}
	return f.innermost[b.ID]
}

// havlakScratch is FindLoops' reusable working state. Every slice is resized
// (never shrunk) per call, so a Graph analyzing a stream of similarly-sized
// binaries stops allocating after the first few.
type havlakScratch struct {
	num          []int // block ID -> preorder number
	blockOf      []int // preorder number -> block ID
	last         []int // preorder number -> max preorder in DFS subtree
	backPreds    [][]int
	nonBackPreds [][]int
	uf           []int
	loopAtHeader []*Loop
	inPool       []bool
	pool         []int
	work         []int
	loopSlab     []Loop
	loops        []*Loop
	top          []*Loop
	innermost    []*Loop
	dfsStack     []dfsFrame
}

// dfsFrame is one explicit-stack frame of FindLoops' preorder DFS.
type dfsFrame struct {
	me   int // preorder number of the node
	next int // index of the next successor to consider
}

// FindLoops runs Havlak's interval analysis (Havlak 1997, as cited by the
// paper) on the reachable portion of the graph and returns the loop-nesting
// forest. The implementation follows the classical union-find formulation:
// process headers in decreasing DFS preorder, collapse each discovered loop
// body into its header, and classify regions whose entries are not
// dominated by the header as irreducible.
//
// The returned Forest shares the Graph's reusable analysis storage and is
// valid only until the next FindLoops or Rebuild on this Graph.
func (g *Graph) FindLoops() *Forest {
	n := len(g.Blocks)
	sc := &g.havlak

	// DFS preorder numbering of the reachable subgraph, with an explicit
	// stack: numbering is sequential, so when a node's subtree finishes,
	// its last-descendant number is simply the latest number assigned. No
	// recursive closure means no per-call closure environment on the heap.
	const unvisited = -1
	num := resizeInts(&sc.num, n)
	for i := range num {
		num[i] = unvisited
	}
	blockOf := sc.blockOf[:0]
	last := sc.last[:0]
	stack := append(sc.dfsStack[:0], dfsFrame{me: 0})
	num[0] = 0
	blockOf = append(blockOf, 0)
	last = append(last, 0)
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		succs := g.Blocks[blockOf[fr.me]].Succs
		if fr.next < len(succs) {
			s := succs[fr.next]
			fr.next++
			if num[s] == unvisited {
				me := len(blockOf)
				num[s] = me
				blockOf = append(blockOf, s)
				last = append(last, me)
				stack = append(stack, dfsFrame{me: me})
			}
			continue
		}
		last[fr.me] = len(blockOf) - 1
		stack = stack[:len(stack)-1]
	}
	sc.dfsStack = stack[:0]
	sc.blockOf, sc.last = blockOf, last
	r := len(blockOf) // reachable count

	isAncestor := func(w, v int) bool { return w <= v && v <= last[w] }

	// Edge classification in preorder-number space. The per-node lists keep
	// their capacity across calls.
	backPreds := resizeIntSlices(&sc.backPreds, r)
	nonBackPreds := resizeIntSlices(&sc.nonBackPreds, r)
	for w := 0; w < r; w++ {
		for _, predID := range g.Blocks[blockOf[w]].Preds {
			v := num[predID]
			if v == unvisited {
				continue // unreachable predecessor
			}
			if isAncestor(w, v) {
				backPreds[w] = append(backPreds[w], v)
			} else {
				nonBackPreds[w] = append(nonBackPreds[w], v)
			}
		}
	}

	// Union-find over preorder numbers.
	uf := resizeInts(&sc.uf, r)
	for i := range uf {
		uf[i] = i
	}

	// Loop structs come from a slab sized to the worst case (one loop per
	// reachable block) so taking a loop never moves earlier ones; their
	// member/child slices keep capacity across reuse.
	if cap(sc.loopSlab) < r {
		sc.loopSlab = make([]Loop, r)
	}
	sc.loopSlab = sc.loopSlab[:cap(sc.loopSlab)]
	nloops := 0
	takeLoop := func() *Loop {
		l := &sc.loopSlab[nloops]
		nloops++
		*l = Loop{
			Children: l.Children[:0],
			Blocks:   l.Blocks[:0],
			direct:   l.direct[:0],
		}
		return l
	}

	innermost := resizeLoopPtrs(&sc.innermost, n)
	for i := range innermost {
		innermost[i] = nil
	}
	f := &Forest{graph: g, innermost: innermost}
	loops := sc.loops[:0]
	loopAtHeader := resizeLoopPtrs(&sc.loopAtHeader, r)
	for i := range loopAtHeader {
		loopAtHeader[i] = nil
	}
	inPool := resizeBools(&sc.inPool, r)

	for w := r - 1; w >= 0; w-- {
		pool := sc.pool[:0]
		selfLoop := false
		for _, v := range backPreds[w] {
			if v == w {
				selfLoop = true
				continue
			}
			rep := ufFind(uf, v)
			if !inPool[rep] {
				inPool[rep] = true
				pool = append(pool, rep)
			}
		}

		reducible := true
		work := append(sc.work[:0], pool...)
		for len(work) > 0 {
			x := work[len(work)-1]
			work = work[:len(work)-1]
			for _, y := range nonBackPreds[x] {
				yd := ufFind(uf, y)
				if !isAncestor(w, yd) {
					// A loop entry not dominated by w: irreducible region.
					reducible = false
					nonBackPreds[w] = append(nonBackPreds[w], yd)
				} else if yd != w && !inPool[yd] {
					inPool[yd] = true
					pool = append(pool, yd)
					work = append(work, yd)
				}
			}
		}
		sc.work = work[:0]

		if len(pool) == 0 && !selfLoop {
			sc.pool = pool
			continue
		}
		headerBlock := g.Blocks[blockOf[w]]
		l := takeLoop()
		l.ID = len(loops)
		l.Header = headerBlock
		l.Reducible = reducible
		l.Loc = g.Bin.LineFor(headerBlock.Start)
		loops = append(loops, l)
		loopAtHeader[w] = l
		for _, p := range pool {
			if inner := loopAtHeader[p]; inner != nil && inner.Parent == nil {
				inner.Parent = l
				l.Children = append(l.Children, inner)
			} else {
				l.direct = append(l.direct, p)
			}
			uf[p] = w
		}
		// Clear the membership marks: pool lists exactly the marked entries.
		for _, p := range pool {
			inPool[p] = false
		}
		sc.pool = pool
	}

	// Loops were created innermost-first; reverse so parents precede
	// children, then fill depths, member lists, and attribution.
	for i, j := 0, len(loops)-1; i < j; i, j = i+1, j-1 {
		loops[i], loops[j] = loops[j], loops[i]
	}
	top := sc.top[:0]
	for i, l := range loops {
		l.ID = i
		if l.Parent == nil {
			top = append(top, l)
		}
	}
	for _, l := range top {
		fillLoop(g, blockOf, innermost, l, 1)
	}
	sc.loops, sc.top = loops, top
	f.Loops = loops
	return f
}

// ufFind is iterative union-find lookup with full path compression.
func ufFind(uf []int, x int) int {
	root := x
	for uf[root] != root {
		root = uf[root]
	}
	for uf[x] != root {
		uf[x], x = root, uf[x]
	}
	return root
}

// fillLoop computes depths, member block lists, and innermost-loop
// attribution for l's subtree, returning l's complete member list.
func fillLoop(g *Graph, blockOf []int, innermost []*Loop, l *Loop, depth int) []*Block {
	l.Depth = depth
	blocks := append(l.Blocks[:0], l.Header)
	innermost[l.Header.ID] = l
	for _, p := range l.direct {
		b := g.Blocks[blockOf[p]]
		blocks = append(blocks, b)
		innermost[b.ID] = l
	}
	for _, c := range l.Children {
		blocks = append(blocks, fillLoop(g, blockOf, innermost, c, depth+1)...)
	}
	slices.SortFunc(blocks, func(a, b *Block) int {
		switch {
		case a.Start < b.Start:
			return -1
		case a.Start > b.Start:
			return 1
		default:
			return 0
		}
	})
	l.Blocks = blocks
	return blocks
}

func resizeIntSlices(s *[][]int, n int) [][]int {
	if cap(*s) < n {
		grown := make([][]int, n)
		copy(grown, (*s)[:cap(*s)])
		*s = grown
	} else {
		*s = (*s)[:n]
	}
	out := *s
	for i := range out {
		out[i] = out[i][:0]
	}
	return out
}

func resizeLoopPtrs(s *[]*Loop, n int) []*Loop {
	if cap(*s) < n {
		*s = make([]*Loop, n)
	} else {
		*s = (*s)[:n]
	}
	return *s
}
