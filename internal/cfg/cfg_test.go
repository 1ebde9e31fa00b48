package cfg

import (
	"testing"

	"repro/internal/objfile"
)

// buildNest lowers the canonical tiled-copy shape: an outer loop at t.c:1
// containing a load at t.c:2 and an inner loop at t.c:3 with a load and a
// store.
func buildNest(t *testing.T) (*objfile.Binary, map[string]uint64) {
	t.Helper()
	b := objfile.NewBuilder("nest")
	ips := map[string]uint64{}
	b.Func("main")
	ips["outer"] = b.Loop("t.c", 1)
	ips["ld0"] = b.Load("t.c", 2)
	ips["inner"] = b.Loop("t.c", 3)
	ips["ld1"] = b.Load("t.c", 4)
	ips["st1"] = b.Store("t.c", 5)
	b.EndLoop()
	b.EndLoop()
	return b.Finish(), ips
}

func TestBuildBasicBlocks(t *testing.T) {
	bin, ips := buildNest(t)
	g, err := Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	// Expected blocks:
	//   B0: outer header + ld0        [outer, ld0]
	//   B1: inner header + ld1 + st1 + inner backedge
	//   B2: outer backedge
	//   B3: ret
	if len(g.Blocks) != 4 {
		for _, b := range g.Blocks {
			t.Logf("%v", b)
		}
		t.Fatalf("block count = %d, want 4", len(g.Blocks))
	}
	b, ok := g.BlockAt(ips["ld1"])
	if !ok {
		t.Fatal("BlockAt(ld1) missed")
	}
	if !b.Contains(ips["inner"]) {
		t.Error("ld1 and inner header should share a block")
	}
	if _, ok := g.BlockAt(objfile.BaseText - 8); ok {
		t.Error("BlockAt before text should miss")
	}
	if _, ok := g.BlockAt(g.Blocks[len(g.Blocks)-1].End + 64); ok {
		t.Error("BlockAt past text should miss")
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := Build(&objfile.Binary{Name: "empty"}); err == nil {
		t.Error("empty binary should error")
	}
}

func TestSuccessorsOfCondBranch(t *testing.T) {
	bin, ips := buildNest(t)
	g, err := Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	inner, _ := g.BlockAt(ips["inner"])
	// Inner block ends with the inner back edge: succ = itself + outer backedge block.
	if len(inner.Succs) != 2 {
		t.Fatalf("inner block succs = %v, want 2 edges", inner.Succs)
	}
	foundSelf := false
	for _, s := range inner.Succs {
		if s == inner.ID {
			foundSelf = true
		}
	}
	if !foundSelf {
		t.Error("inner block should loop to itself via back edge")
	}
}

func TestReversePostorderStartsAtEntry(t *testing.T) {
	bin, _ := buildNest(t)
	g, _ := Build(bin)
	rpo := g.ReversePostorder()
	if len(rpo) != len(g.Blocks) {
		t.Fatalf("rpo covers %d blocks, want %d", len(rpo), len(g.Blocks))
	}
	if rpo[0] != 0 {
		t.Errorf("rpo[0] = %d, want entry 0", rpo[0])
	}
}

func TestDominators(t *testing.T) {
	bin, ips := buildNest(t)
	g, _ := Build(bin)
	idom := g.Dominators()
	if idom[0] != 0 {
		t.Errorf("idom(entry) = %d, want 0", idom[0])
	}
	entry := g.Entry()
	inner, _ := g.BlockAt(ips["inner"])
	if !Dominates(idom, entry.ID, inner.ID) {
		t.Error("entry should dominate inner block")
	}
	if Dominates(idom, inner.ID, entry.ID) {
		t.Error("inner must not dominate entry")
	}
	for _, b := range g.Blocks {
		if !Dominates(idom, b.ID, b.ID) {
			t.Errorf("block %d should dominate itself", b.ID)
		}
		if !Dominates(idom, entry.ID, b.ID) {
			t.Errorf("entry should dominate block %d", b.ID)
		}
	}
}

// topLevel returns f's loops that have no parent, in order.
func topLevel(f *Forest) []*Loop {
	var top []*Loop
	for _, l := range f.Loops {
		if l.Parent == nil {
			top = append(top, l)
		}
	}
	return top
}

func TestFindLoopsNested(t *testing.T) {
	bin, ips := buildNest(t)
	g, _ := Build(bin)
	f := g.FindLoops()
	if len(f.Loops) != 2 {
		for _, l := range f.Loops {
			t.Logf("%v", l)
		}
		t.Fatalf("loop count = %d, want 2", len(f.Loops))
	}
	top := topLevel(f)
	if len(top) != 1 {
		t.Fatalf("top-level loops = %d, want 1", len(top))
	}
	outer := top[0]
	if outer.Depth != 1 || len(outer.Children) != 1 {
		t.Fatalf("outer loop shape wrong: %v", outer)
	}
	inner := outer.Children[0]
	if inner.Depth != 2 || inner.Parent != outer {
		t.Errorf("inner loop shape wrong: %v", inner)
	}
	if !outer.Reducible || !inner.Reducible {
		t.Error("structured loops should be reducible")
	}
	if outer.Loc.Line != 1 || inner.Loc.Line != 3 {
		t.Errorf("loop locations: outer=%v inner=%v, want t.c:1 / t.c:3", outer.Loc, inner.Loc)
	}

	// Attribution: memory IPs map to the right innermost loop.
	if got := f.InnermostAt(ips["ld0"]); got != outer {
		t.Errorf("InnermostAt(ld0) = %v, want outer", got)
	}
	if got := f.InnermostAt(ips["ld1"]); got != inner {
		t.Errorf("InnermostAt(ld1) = %v, want inner", got)
	}
	if got := f.InnermostAt(ips["st1"]); got != inner {
		t.Errorf("InnermostAt(st1) = %v, want inner", got)
	}
	if got := f.InnermostAt(0xdeadbeef); got != nil {
		t.Errorf("InnermostAt(unknown) = %v, want nil", got)
	}
}

func TestInnerLoops(t *testing.T) {
	bin, _ := buildNest(t)
	g, _ := Build(bin)
	f := g.FindLoops()
	inner := f.InnerLoops()
	if len(inner) != 1 || inner[0].Depth != 2 {
		t.Errorf("InnerLoops = %v, want single depth-2 loop", inner)
	}
}

func TestTripleNest(t *testing.T) {
	b := objfile.NewBuilder("triple")
	b.Func("main")
	b.Loop("k.c", 1)
	b.Loop("k.c", 2)
	b.Loop("k.c", 3)
	ld := b.Load("k.c", 4)
	b.EndLoop()
	b.EndLoop()
	b.EndLoop()
	bin := b.Finish()
	g, err := Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	f := g.FindLoops()
	if len(f.Loops) != 3 {
		t.Fatalf("loop count = %d, want 3", len(f.Loops))
	}
	l := f.InnermostAt(ld)
	if l == nil || l.Depth != 3 {
		t.Fatalf("innermost of load = %v, want depth 3", l)
	}
	if l.Parent == nil || l.Parent.Depth != 2 || l.Parent.Parent.Depth != 1 {
		t.Error("loop nesting depths wrong")
	}
}

func TestSequentialLoops(t *testing.T) {
	b := objfile.NewBuilder("seq")
	b.Func("main")
	b.Loop("s.c", 1)
	ld1 := b.Load("s.c", 2)
	b.EndLoop()
	b.Loop("s.c", 10)
	ld2 := b.Load("s.c", 11)
	b.EndLoop()
	bin := b.Finish()
	g, err := Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	f := g.FindLoops()
	if len(f.Loops) != 2 || len(topLevel(f)) != 2 {
		t.Fatalf("got %d loops (%d top), want 2 disjoint", len(f.Loops), len(topLevel(f)))
	}
	a, c := f.InnermostAt(ld1), f.InnermostAt(ld2)
	if a == nil || c == nil || a == c {
		t.Errorf("loads should map to distinct loops: %v / %v", a, c)
	}
	if a.Depth != 1 || c.Depth != 1 {
		t.Error("sequential loops should both be depth 1")
	}
}

func TestStraightLineHasNoLoops(t *testing.T) {
	b := objfile.NewBuilder("straight")
	b.Func("main")
	b.Load("x.c", 1)
	b.Store("x.c", 2)
	bin := b.Finish()
	g, err := Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	f := g.FindLoops()
	if len(f.Loops) != 0 {
		t.Errorf("straight-line code produced %d loops", len(f.Loops))
	}
}

// Hand-built irreducible graph: two entries into a cycle.
//
//	entry -> A, entry -> B, A -> B, B -> A, A -> exit
func TestIrreducibleRegion(t *testing.T) {
	base := uint64(objfile.BaseText)
	addr := func(i int) uint64 { return base + uint64(i*objfile.InstrSize) }
	// 0: condbranch -> 3 (B), fallthrough 1
	// 1: (A) condbranch -> 3 (B), fallthrough 2
	// 2: ret (exit)
	// 3: (B) branch -> 1 (A)
	bin := &objfile.Binary{
		Name: "irr",
		Instrs: []objfile.Instruction{
			{Addr: addr(0), Kind: objfile.CondBranch, Target: addr(3)},
			{Addr: addr(1), Kind: objfile.CondBranch, Target: addr(3)},
			{Addr: addr(2), Kind: objfile.Ret},
			{Addr: addr(3), Kind: objfile.Branch, Target: addr(1)},
		},
	}
	g, err := Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	f := g.FindLoops()
	if len(f.Loops) == 0 {
		t.Fatal("irreducible cycle not detected as a loop region")
	}
	foundIrr := false
	for _, l := range f.Loops {
		if !l.Reducible {
			foundIrr = true
		}
	}
	if !foundIrr {
		t.Error("cycle with two entries should be flagged irreducible")
	}
}

func TestSelfLoop(t *testing.T) {
	base := uint64(objfile.BaseText)
	bin := &objfile.Binary{
		Name: "self",
		Instrs: []objfile.Instruction{
			{Addr: base, Kind: objfile.CondBranch, Target: base},
			{Addr: base + 4, Kind: objfile.Ret},
		},
	}
	g, err := Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	f := g.FindLoops()
	if len(f.Loops) != 1 {
		t.Fatalf("self-loop count = %d, want 1", len(f.Loops))
	}
	if got := f.InnermostAt(base); got != f.Loops[0] {
		t.Error("self-loop header should attribute to its own loop")
	}
}

func TestLoopName(t *testing.T) {
	bin, _ := buildNest(t)
	g, _ := Build(bin)
	f := g.FindLoops()
	if got := topLevel(f)[0].Name(); got != "t.c:1" {
		t.Errorf("outer loop name = %q, want t.c:1", got)
	}
	anon := &Loop{Header: &Block{Start: 0x100}}
	if got := anon.Name(); got != "loop@0x100" {
		t.Errorf("anonymous loop name = %q", got)
	}
}

// Unreachable code (a second function never called) must not break loop
// discovery for the reachable part.
func TestUnreachableFunctionIgnored(t *testing.T) {
	b := objfile.NewBuilder("two")
	b.Func("main")
	b.Loop("m.c", 1)
	ld := b.Load("m.c", 2)
	b.EndLoop()
	b.Func("orphan")
	b.Loop("o.c", 1)
	b.Load("o.c", 2)
	b.EndLoop()
	bin := b.Finish()
	g, err := Build(bin)
	if err != nil {
		t.Fatal(err)
	}
	f := g.FindLoops()
	// Only main's loop is reachable from the entry.
	if len(f.Loops) != 1 {
		t.Fatalf("loops = %d, want 1 (orphan unreachable)", len(f.Loops))
	}
	if f.InnermostAt(ld) == nil {
		t.Error("reachable loop lost")
	}
}

func BenchmarkFindLoops(b *testing.B) {
	bld := objfile.NewBuilder("bench")
	bld.Func("main")
	for i := 0; i < 20; i++ {
		bld.Loop("b.c", i*10)
		bld.Load("b.c", i*10+1)
		bld.Loop("b.c", i*10+2)
		bld.Load("b.c", i*10+3)
		bld.EndLoop()
		bld.EndLoop()
	}
	bin := bld.Finish()
	g, err := Build(bin)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.FindLoops()
	}
}
