package core

// EvictBacklog is the number of admission stamps the eviction sweep has
// not yet consumed.
func (p *Process) EvictBacklog() int { return len(p.ingressAges) - p.agesHead }

// Muted reports whether the process is a dumb process: a member of a
// replaced coordinator pair, which executes the protocol but transmits
// nothing.
func (p *Process) Muted() bool { return p.muted() }

// QuorumEff is the commit quorum after the dumb-process optimization.
func (p *Process) QuorumEff() int { return p.quorumEff() }
