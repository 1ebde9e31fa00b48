package vmem

// Pages returns the number of mapped pages.
func (s *Space) Pages() int { return len(s.table) }
