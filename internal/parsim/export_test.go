package parsim

// Degraded reports whether the sweep lost shards.
func (r *Report) Degraded() bool { return len(r.Failed) > 0 }
