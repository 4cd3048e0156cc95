package core

// EvictBacklog is the number of admission stamps the eviction sweep has
// not yet consumed.
func (p *Process) EvictBacklog() int { return len(p.ingressAges) - p.agesHead }
