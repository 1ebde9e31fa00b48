package cache

// Contains reports whether the line holding addr is currently resident.
// It does not update replacement state.
func (c *Cache) Contains(addr uint64) bool {
	set := c.Geom.Set(addr)
	tag := c.Geom.Tag(addr)
	if c.lines != nil {
		line := addr >> c.offBits
		base := set * c.ways
		seg := c.lines[base : base+c.ways]
		for j := range seg {
			if seg[j] == line {
				return true
			}
		}
		return false
	}
	ways := c.sets[set*c.Geom.Ways : (set+1)*c.Geom.Ways]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return true
		}
	}
	return false
}

// LevelName returns a printable name for a service level.
func LevelName(level int) string {
	switch level {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	default:
		return "Mem"
	}
}
