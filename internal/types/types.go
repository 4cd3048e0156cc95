package types

import (
	"fmt"
	"strings"
)

// NodeID identifies one order process (replica or shadow) or one client in
// the flat address space used by every transport. Order processes occupy
// [0, n); clients occupy [ClientBase, ...).
type NodeID int32

// ClientBase is the first NodeID assigned to clients. Order processes are
// always numbered below it.
const ClientBase NodeID = 1 << 16

// Nil is the zero NodeID used to mean "no process".
const Nil NodeID = -1

// IsClient reports whether id addresses a client endpoint.
func (id NodeID) IsClient() bool { return id >= ClientBase }

// String renders replica processes as "p<i>", shadows cannot be
// distinguished without a Topology, so the raw form is "n<id>" and clients
// are "client<k>".
func (id NodeID) String() string {
	switch {
	case id == Nil:
		return "nil"
	case id.IsClient():
		return fmt.Sprintf("client%d", int32(id-ClientBase))
	default:
		return fmt.Sprintf("n%d", int32(id))
	}
}

// Seq is a total-order sequence number assigned by a coordinator to a
// request (the "o" of order<c, o, D(m)> in the paper). Sequence numbers
// start at 1; 0 means "nothing committed yet".
type Seq uint64

// View numbers coordinator regimes. For SC a view is the rank of the
// coordinator candidate currently installed (starting at 1, per the paper's
// variable c). For SCR and BFT it is the usual unbounded view number.
type View uint64

// Rank is the 1-based rank of a coordinator candidate (Cc, 1 <= c <= f+1).
type Rank int

// Transport selects the message-passing medium of a live (real-time)
// cluster. The virtual-time simulator has its own substrate and ignores it.
type Transport int

// The live substrates.
const (
	// TransportInProcess passes marshalled messages between goroutines in
	// one OS process, optionally shaped by simulated network delays. It is
	// the default and the fastest substrate.
	TransportInProcess Transport = iota
	// TransportTCP runs every order process as a real TCP endpoint:
	// length-prefixed frames over loopback sockets, per-peer send queues
	// with bounded backpressure, and writev batch coalescing.
	TransportTCP
)

// String returns the transport name.
func (t Transport) String() string {
	switch t {
	case TransportInProcess:
		return "in-process"
	case TransportTCP:
		return "tcp"
	default:
		return fmt.Sprintf("Transport(%d)", int(t))
	}
}

// Protocol selects one of the four order protocols studied in the paper.
type Protocol int

// The protocols of the performance study (Section 5).
const (
	// SC is the signal-on-crash protocol under assumption set 3(a).
	SC Protocol = iota
	// SCR is the signal-on-crash-and-recovery extension under 3(b).
	SCR
	// BFT is the Castro-Liskov comparator.
	BFT
	// CT is the crash-tolerant strawman derived from SC.
	CT
)

// ParseProtocol maps a protocol's command-line name (sc, scr, bft, ct;
// case-insensitive) to the Protocol.
func ParseProtocol(s string) (Protocol, error) {
	for _, p := range []Protocol{SC, SCR, BFT, CT} {
		if strings.EqualFold(s, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("types: unknown protocol %q", s)
}

// String returns the paper's name for the protocol.
func (p Protocol) String() string {
	switch p {
	case SC:
		return "SC"
	case SCR:
		return "SCR"
	case BFT:
		return "BFT"
	case CT:
		return "CT"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Topology describes the process layout of a cluster for one protocol and
// fault-tolerance parameter f. It is the single source of truth for "who is
// whose shadow" and for quorum sizes.
//
// NodeID layout:
//
//	replicas p1..p(2f+1)  -> NodeIDs 0..2f
//	shadows  p'1..p'(s)   -> NodeIDs 2f+1..2f+s
//
// where s = f for SC, s = f+1 for SCR, s = 0 for BFT and CT.
type Topology struct {
	Protocol Protocol
	F        int
	// Rot rotates the logical process layout over the physical NodeID
	// space: logical process l lives at NodeID (l + Rot) mod N. A plain
	// topology has Rot 0 (logical == physical). Sharded deployments give
	// each ordering group a differently rotated view of the same physical
	// nodes, so group g's coordinator pair occupies different machines
	// than group g+1's — one machine's failure degrades one group's pair,
	// not every group's, and coordinator load spreads across the cluster.
	// The physical ID space (AllProcesses, IsProcess, wire addressing) is
	// unchanged; only the role mapping rotates.
	Rot int
}

// NewTopology validates f >= 1 and returns the topology.
func NewTopology(p Protocol, f int) (Topology, error) {
	if f < 1 {
		return Topology{}, fmt.Errorf("types: fault-tolerance parameter f must be >= 1, got %d", f)
	}
	return Topology{Protocol: p, F: f}, nil
}

// Rotated returns the same physical cluster with the logical role layout
// rotated by `by` positions (mod N): the primary of candidate 1 moves
// from NodeID 0 to NodeID by, and so on. Rotations compose.
func (t Topology) Rotated(by int) Topology {
	n := t.N()
	if n <= 0 {
		return t
	}
	t.Rot = ((t.Rot+by)%n + n) % n
	return t
}

// phys maps a logical process index (0-based) to its physical NodeID.
func (t Topology) phys(l int) NodeID {
	n := t.N()
	return NodeID(((l+t.Rot)%n + n) % n)
}

// logical maps a physical NodeID back to its logical process index, or
// -1 for IDs outside the process space.
func (t Topology) logical(id NodeID) int {
	if !t.IsProcess(id) {
		return -1
	}
	n := t.N()
	return ((int(id)-t.Rot)%n + n) % n
}

// NumReplicas returns the number of service replica nodes, 2f+1.
func (t Topology) NumReplicas() int { return 2*t.F + 1 }

// NumShadows returns the number of shadow nodes for the protocol: f for SC,
// f+1 for SCR, 0 for BFT and CT.
func (t Topology) NumShadows() int {
	switch t.Protocol {
	case SC:
		return t.F
	case SCR:
		return t.F + 1
	default:
		return 0
	}
}

// N returns the total number of order processes: 3f+1 for SC, 3f+2 for SCR,
// 3f+1 for BFT (no shadows; BFT runs on 3f+1 plain replicas by its own
// requirement, so BFT clusters are built with NumReplicas()=3f+1 via
// BFTTopology), and 2f+1 for CT.
func (t Topology) N() int {
	switch t.Protocol {
	case SC:
		return 3*t.F + 1
	case SCR:
		return 3*t.F + 2
	case BFT:
		return 3*t.F + 1
	case CT:
		return 2*t.F + 1
	default:
		return 0
	}
}

// Quorum returns the commit quorum size n-f used by the normal parts of SC,
// SCR and CT (steps N2/N3), and 2f+1 for BFT's commit certificate.
func (t Topology) Quorum() int {
	if t.Protocol == BFT {
		return 2*t.F + 1
	}
	return t.N() - t.F
}

// AllProcesses returns the NodeIDs of every order process, replicas first
// then shadows.
func (t Topology) AllProcesses() []NodeID {
	ids := make([]NodeID, 0, t.N())
	for i := 0; i < t.N(); i++ {
		ids = append(ids, NodeID(i))
	}
	return ids
}

// numOrderReplicas is the count of replica-resident order processes, which
// for BFT is the full 3f+1 (BFT has no shadows; all its processes are
// "replicas").
func (t Topology) numOrderReplicas() int {
	if t.Protocol == BFT {
		return 3*t.F + 1
	}
	return 2*t.F + 1
}

// ReplicaID maps the 1-based replica index i (process pi) to its NodeID.
func (t Topology) ReplicaID(i int) (NodeID, error) {
	if i < 1 || i > t.numOrderReplicas() {
		return Nil, fmt.Errorf("types: replica index %d out of range [1, %d]", i, t.numOrderReplicas())
	}
	return t.phys(i - 1), nil
}

// ShadowID maps the 1-based shadow index i (process p'i) to its NodeID.
func (t Topology) ShadowID(i int) (NodeID, error) {
	if i < 1 || i > t.NumShadows() {
		return Nil, fmt.Errorf("types: shadow index %d out of range [1, %d]", i, t.NumShadows())
	}
	return t.phys(t.numOrderReplicas() + i - 1), nil
}

// IsShadow reports whether id is a shadow order process.
func (t Topology) IsShadow(id NodeID) bool {
	l := t.logical(id)
	return l >= t.numOrderReplicas() && l < t.N()
}

// IsProcess reports whether id is an order process of this topology.
func (t Topology) IsProcess(id NodeID) bool {
	return id >= 0 && int(id) < t.N()
}

// PairIndex returns the 1-based pair index i such that id is pi or p'i and
// the pair {pi, p'i} exists, or 0 if id is unpaired.
func (t Topology) PairIndex(id NodeID) int {
	l := t.logical(id)
	if l < 0 {
		return 0
	}
	if l >= t.numOrderReplicas() {
		return l - t.numOrderReplicas() + 1
	}
	i := l + 1
	if i <= t.NumShadows() {
		return i
	}
	return 0
}

// PairOf returns the counterpart of a paired process (p'i for pi and vice
// versa) and true, or (Nil, false) if id is not part of a pair.
func (t Topology) PairOf(id NodeID) (NodeID, bool) {
	i := t.PairIndex(id)
	if i == 0 {
		return Nil, false
	}
	if t.IsShadow(id) {
		r, err := t.ReplicaID(i)
		if err != nil {
			return Nil, false
		}
		return r, true
	}
	s, err := t.ShadowID(i)
	if err != nil {
		return Nil, false
	}
	return s, true
}

// NumCandidates returns the number of coordinator candidates: f+1 for SC
// (all f pairs then one unpaired process), f+1 pairs for SCR, and for BFT/CT
// every process is a potential coordinator (n).
func (t Topology) NumCandidates() int {
	switch t.Protocol {
	case SC, SCR:
		return t.F + 1
	default:
		return t.N()
	}
}

// Candidate returns the coordinator candidate of the given 1-based rank.
// For SC, candidates C1..Cf are the pairs {pi, p'i} and C(f+1) is the
// unpaired process p(f+1) (paired == false, shadow == Nil). For SCR every
// candidate is a pair. For BFT and CT the candidate of rank c is process
// c-1 (views map to ranks modulo n).
func (t Topology) Candidate(c Rank) (primary, shadow NodeID, paired bool, err error) {
	if c < 1 || int(c) > t.NumCandidates() {
		return Nil, Nil, false, fmt.Errorf("types: candidate rank %d out of range [1, %d]", c, t.NumCandidates())
	}
	switch t.Protocol {
	case SC:
		if int(c) <= t.F {
			p, _ := t.ReplicaID(int(c))
			s, _ := t.ShadowID(int(c))
			return p, s, true, nil
		}
		// The (f+1)th candidate is the randomly-chosen unpaired process;
		// we fix it, deterministically, as p(f+1).
		p, _ := t.ReplicaID(t.F + 1)
		return p, Nil, false, nil
	case SCR:
		p, _ := t.ReplicaID(int(c))
		s, _ := t.ShadowID(int(c))
		return p, s, true, nil
	default:
		return t.phys(int(c) - 1), Nil, false, nil
	}
}

// CandidateForView maps an SCR/BFT view number to the coordinator candidate
// rank: for SCR, c = v mod (f+1) with c = f+1 when the remainder is 0 (the
// paper's rule); for BFT/CT, the primary of view v is process v mod n.
func (t Topology) CandidateForView(v View) Rank {
	switch t.Protocol {
	case SC, SCR:
		m := int(v) % (t.F + 1)
		if m == 0 {
			m = t.F + 1
		}
		return Rank(m)
	default:
		return Rank(int(v)%t.N() + 1)
	}
}

// ClientID returns the NodeID for the kth client (k >= 0).
func ClientID(k int) NodeID { return ClientBase + NodeID(k) }
