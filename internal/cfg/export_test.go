package cfg

// InnerLoops returns the loops with no children (the innermost loops),
// which is what the paper counts as "active inner loops" in Table 2.
func (f *Forest) InnerLoops() []*Loop {
	var out []*Loop
	for _, l := range f.Loops {
		if len(l.Children) == 0 {
			out = append(out, l)
		}
	}
	return out
}

// Entry returns the entry block.
func (g *Graph) Entry() *Block { return g.Blocks[0] }
