package rcd

// VictimSets returns the sets whose miss share exceeds share times the
// uniform share 1/Sets, ordered by set index — the "victim sets" of §3.
func (t *Tracker) VictimSets(share float64) []int {
	if t.pos == 0 {
		return nil
	}
	uniform := float64(t.pos) / float64(t.sets)
	var out []int
	for s, m := range t.misses {
		if float64(m) > share*uniform {
			out = append(out, s)
		}
	}
	return out
}
