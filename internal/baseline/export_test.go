package baseline

// Samples returns the number of observed samples.
func (d *DProf) Samples() uint64 { return d.total }
