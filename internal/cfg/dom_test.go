package cfg

// Dominators computes the immediate-dominator tree of the reachable part of
// the graph using the Cooper–Harvey–Kennedy iterative algorithm over reverse
// postorder. idom[entry] == entry; idom[b] == -1 for unreachable blocks.
func (g *Graph) Dominators() []int {
	rpo := g.ReversePostorder()
	pos := make([]int, len(g.Blocks)) // block ID -> RPO position
	for i := range pos {
		pos[i] = -1
	}
	for i, id := range rpo {
		pos[id] = i
	}

	idom := make([]int, len(g.Blocks))
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0

	intersect := func(a, b int) int {
		for a != b {
			for pos[a] > pos[b] {
				a = idom[a]
			}
			for pos[b] > pos[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, id := range rpo {
			if id == 0 {
				continue
			}
			newIdom := -1
			for _, p := range g.Blocks[id].Preds {
				if pos[p] < 0 || idom[p] < 0 {
					continue // unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom >= 0 && idom[id] != newIdom {
				idom[id] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether block a dominates block b given an idom tree
// from Dominators. Every block dominates itself.
func Dominates(idom []int, a, b int) bool {
	if idom[b] < 0 {
		return false
	}
	for {
		if a == b {
			return true
		}
		if b == 0 {
			return a == 0
		}
		b = idom[b]
	}
}

// ReversePostorder returns reachable block IDs in reverse postorder from the
// entry. Unreachable blocks are omitted.
func (g *Graph) ReversePostorder() []int {
	seen := make([]bool, len(g.Blocks))
	var post []int
	var dfs func(int)
	dfs = func(id int) {
		seen[id] = true
		for _, s := range g.Blocks[id].Succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, id)
	}
	dfs(0)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
