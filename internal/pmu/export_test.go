package pmu

// L2MissRatio returns misses/accesses at the L2.
func (s *L2Sampler) L2MissRatio() float64 { return s.l2.MissRatio() }

// MissRatio returns the L1 miss ratio the hardware observed.
func (s *Sampler) MissRatio() float64 { return s.l1.MissRatio() }

// RaisedCount returns the number of samples the hardware raised, before
// fault injection and buffer bounds discarded any; the denominator of every
// loss-rate calculation.
func (s *Sampler) RaisedCount() uint64 { return s.raised }
