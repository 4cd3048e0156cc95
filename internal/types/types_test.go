package types

import (
	"testing"
	"testing/quick"
)

func mustTopo(t *testing.T, p Protocol, f int) Topology {
	t.Helper()
	topo, err := NewTopology(p, f)
	if err != nil {
		t.Fatalf("NewTopology(%v, %d): %v", p, f, err)
	}
	return topo
}

func TestNewTopologyRejectsBadF(t *testing.T) {
	for _, f := range []int{0, -1, -100} {
		if _, err := NewTopology(SC, f); err == nil {
			t.Errorf("NewTopology(SC, %d): want error, got nil", f)
		}
	}
}

func TestTopologySizes(t *testing.T) {
	tests := []struct {
		proto                 Protocol
		f                     int
		n, replicas, shadows  int
		quorum, numCandidates int
	}{
		{SC, 1, 4, 3, 1, 3, 2},
		{SC, 2, 7, 5, 2, 5, 3},
		{SC, 3, 10, 7, 3, 7, 4},
		{SCR, 1, 5, 3, 2, 4, 2},
		{SCR, 2, 8, 5, 3, 6, 3},
		{BFT, 2, 7, 5, 0, 5, 7},
		{CT, 2, 5, 5, 0, 3, 5},
	}
	for _, tt := range tests {
		topo := mustTopo(t, tt.proto, tt.f)
		if got := topo.N(); got != tt.n {
			t.Errorf("%v f=%d: N() = %d, want %d", tt.proto, tt.f, got, tt.n)
		}
		if got := topo.NumReplicas(); got != tt.replicas {
			t.Errorf("%v f=%d: NumReplicas() = %d, want %d", tt.proto, tt.f, got, tt.replicas)
		}
		if got := topo.NumShadows(); got != tt.shadows {
			t.Errorf("%v f=%d: NumShadows() = %d, want %d", tt.proto, tt.f, got, tt.shadows)
		}
		if got := topo.Quorum(); got != tt.quorum {
			t.Errorf("%v f=%d: Quorum() = %d, want %d", tt.proto, tt.f, got, tt.quorum)
		}
		if got := topo.NumCandidates(); got != tt.numCandidates {
			t.Errorf("%v f=%d: NumCandidates() = %d, want %d", tt.proto, tt.f, got, tt.numCandidates)
		}
		if got := len(topo.AllProcesses()); got != tt.n {
			t.Errorf("%v f=%d: len(AllProcesses()) = %d, want %d", tt.proto, tt.f, got, tt.n)
		}
	}
}

func TestPairing(t *testing.T) {
	topo := mustTopo(t, SC, 2) // p1..p5 = 0..4, p'1,p'2 = 5,6
	p1, _ := topo.ReplicaID(1)
	p2, _ := topo.ReplicaID(2)
	p3, _ := topo.ReplicaID(3)
	s1, _ := topo.ShadowID(1)
	s2, _ := topo.ShadowID(2)

	if got, ok := topo.PairOf(p1); !ok || got != s1 {
		t.Errorf("PairOf(p1) = %v, %v; want %v, true", got, ok, s1)
	}
	if got, ok := topo.PairOf(s2); !ok || got != p2 {
		t.Errorf("PairOf(p'2) = %v, %v; want %v, true", got, ok, p2)
	}
	if _, ok := topo.PairOf(p3); ok {
		t.Errorf("PairOf(p3): unpaired process reported as paired")
	}
	if !topo.IsShadow(s1) || topo.IsShadow(p1) {
		t.Errorf("IsShadow misclassifies: IsShadow(s1)=%v IsShadow(p1)=%v", topo.IsShadow(s1), topo.IsShadow(p1))
	}
	if got := topo.PairIndex(s2); got != 2 {
		t.Errorf("PairIndex(p'2) = %d, want 2", got)
	}
	if got := topo.PairIndex(p3); got != 0 {
		t.Errorf("PairIndex(p3) = %d, want 0", got)
	}
}

// TestPairOfIsInvolution: for every paired process, PairOf(PairOf(x)) == x.
func TestPairOfIsInvolution(t *testing.T) {
	for _, proto := range []Protocol{SC, SCR} {
		for f := 1; f <= 5; f++ {
			topo := mustTopo(t, proto, f)
			for _, id := range topo.AllProcesses() {
				other, ok := topo.PairOf(id)
				if !ok {
					continue
				}
				back, ok2 := topo.PairOf(other)
				if !ok2 || back != id {
					t.Fatalf("%v f=%d: PairOf(PairOf(%v)) = %v, %v; want %v", proto, f, id, back, ok2, id)
				}
				if topo.PairIndex(id) != topo.PairIndex(other) {
					t.Fatalf("%v f=%d: pair indices differ for %v and %v", proto, f, id, other)
				}
			}
		}
	}
}

func TestSCCandidates(t *testing.T) {
	topo := mustTopo(t, SC, 2)
	// C1, C2 are pairs; C3 is the unpaired p3.
	for c := Rank(1); c <= 2; c++ {
		p, s, paired, err := topo.Candidate(c)
		if err != nil || !paired {
			t.Fatalf("Candidate(%d): p=%v s=%v paired=%v err=%v", c, p, s, paired, err)
		}
		wantP, _ := topo.ReplicaID(int(c))
		wantS, _ := topo.ShadowID(int(c))
		if p != wantP || s != wantS {
			t.Errorf("Candidate(%d) = (%v, %v), want (%v, %v)", c, p, s, wantP, wantS)
		}
	}
	p, s, paired, err := topo.Candidate(3)
	if err != nil || paired || s != Nil {
		t.Fatalf("Candidate(3): p=%v s=%v paired=%v err=%v; want unpaired", p, s, paired, err)
	}
	wantP, _ := topo.ReplicaID(3)
	if p != wantP {
		t.Errorf("Candidate(3) primary = %v, want %v", p, wantP)
	}
	if _, _, _, err := topo.Candidate(4); err == nil {
		t.Error("Candidate(4): want out-of-range error")
	}
	if _, _, _, err := topo.Candidate(0); err == nil {
		t.Error("Candidate(0): want out-of-range error")
	}
}

func TestSCRCandidatesAllPaired(t *testing.T) {
	topo := mustTopo(t, SCR, 2)
	for c := Rank(1); int(c) <= topo.NumCandidates(); c++ {
		_, s, paired, err := topo.Candidate(c)
		if err != nil || !paired || s == Nil {
			t.Errorf("SCR Candidate(%d): paired=%v shadow=%v err=%v; want a pair", c, paired, s, err)
		}
	}
}

func TestCandidateForView(t *testing.T) {
	topo := mustTopo(t, SCR, 2) // f+1 = 3 candidates
	tests := []struct {
		v    View
		want Rank
	}{
		{1, 1}, {2, 2}, {3, 3}, {4, 1}, {5, 2}, {6, 3}, {7, 1},
	}
	for _, tt := range tests {
		if got := topo.CandidateForView(tt.v); got != tt.want {
			t.Errorf("CandidateForView(%d) = %d, want %d", tt.v, got, tt.want)
		}
	}
	bft := mustTopo(t, BFT, 1) // n = 4
	if got := bft.CandidateForView(0); got != 1 {
		t.Errorf("BFT CandidateForView(0) = %d, want 1", got)
	}
	if got := bft.CandidateForView(5); got != 2 {
		t.Errorf("BFT CandidateForView(5) = %d, want 2", got)
	}
}

func TestClientIDs(t *testing.T) {
	c0 := ClientID(0)
	if !c0.IsClient() {
		t.Errorf("ClientID(0).IsClient() = false")
	}
	topo := mustTopo(t, SC, 3)
	for _, id := range topo.AllProcesses() {
		if id.IsClient() {
			t.Errorf("process %v misclassified as client", id)
		}
	}
	if got := c0.String(); got != "client0" {
		t.Errorf("ClientID(0).String() = %q, want \"client0\"", got)
	}
}

// Property: replica and shadow IDs never collide and cover exactly [0, N).
func TestIDSpacePartition(t *testing.T) {
	check := func(protoSel uint8, fRaw uint8) bool {
		proto := []Protocol{SC, SCR, BFT, CT}[int(protoSel)%4]
		f := int(fRaw)%6 + 1
		topo, err := NewTopology(proto, f)
		if err != nil {
			return false
		}
		seen := make(map[NodeID]bool)
		nr := topo.numOrderReplicas()
		for i := 1; i <= nr; i++ {
			id, err := topo.ReplicaID(i)
			if err != nil || seen[id] || !topo.IsProcess(id) || topo.IsShadow(id) {
				return false
			}
			seen[id] = true
		}
		for i := 1; i <= topo.NumShadows(); i++ {
			id, err := topo.ShadowID(i)
			if err != nil || seen[id] || !topo.IsProcess(id) || !topo.IsShadow(id) {
				return false
			}
			seen[id] = true
		}
		return len(seen) == topo.N()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestProtocolString(t *testing.T) {
	for p, want := range map[Protocol]string{SC: "SC", SCR: "SCR", BFT: "BFT", CT: "CT", Protocol(9): "Protocol(9)"} {
		if got := p.String(); got != want {
			t.Errorf("Protocol(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

// Rotated topologies relabel roles over the same physical ID space: the
// role methods must stay mutually consistent at every rotation, the
// candidate pairs must actually move, and Rot 0 must be today's layout.
func TestTopologyRotation(t *testing.T) {
	for _, proto := range []Protocol{SC, SCR, BFT, CT} {
		for f := 1; f <= 3; f++ {
			base, err := NewTopology(proto, f)
			if err != nil {
				t.Fatal(err)
			}
			n := base.N()
			for rot := 0; rot < n; rot++ {
				topo := base.Rotated(rot)
				if got := len(topo.AllProcesses()); got != n {
					t.Fatalf("%v f=%d rot=%d: AllProcesses has %d ids, want %d", proto, f, rot, got, n)
				}
				// Every role map is a bijection over the physical space.
				seen := make(map[NodeID]bool)
				for i := 1; i <= topo.numOrderReplicas(); i++ {
					id, err := topo.ReplicaID(i)
					if err != nil || seen[id] || !topo.IsProcess(id) || topo.IsShadow(id) {
						t.Fatalf("%v f=%d rot=%d: replica %d -> %v (err %v)", proto, f, rot, i, id, err)
					}
					seen[id] = true
				}
				for i := 1; i <= topo.NumShadows(); i++ {
					id, err := topo.ShadowID(i)
					if err != nil || seen[id] || !topo.IsShadow(id) {
						t.Fatalf("%v f=%d rot=%d: shadow %d -> %v (err %v)", proto, f, rot, i, id, err)
					}
					seen[id] = true
				}
				// Pairs stay involutions.
				for _, id := range topo.AllProcesses() {
					if other, ok := topo.PairOf(id); ok {
						back, ok2 := topo.PairOf(other)
						if !ok2 || back != id {
							t.Fatalf("%v f=%d rot=%d: PairOf not an involution at %v", proto, f, rot, id)
						}
						if topo.PairIndex(id) != topo.PairIndex(other) {
							t.Fatalf("%v f=%d rot=%d: pair indices disagree at %v", proto, f, rot, id)
						}
					}
				}
				// The primary is the rotated image of the unrotated primary.
				p, _, _, err := topo.Candidate(1)
				if err != nil {
					t.Fatal(err)
				}
				p0, _, _, _ := base.Candidate(1)
				if want := NodeID((int(p0) + rot) % n); p != want {
					t.Fatalf("%v f=%d rot=%d: primary %v, want %v", proto, f, rot, p, want)
				}
			}
			// Rot 0 is bit-for-bit the historical layout.
			if r0, _, _, _ := base.Rotated(0).Candidate(1); r0 != NodeID(0) {
				t.Fatalf("%v f=%d: unrotated primary moved to %v", proto, f, r0)
			}
			// Rotations compose and normalise mod N.
			if got := base.Rotated(1).Rotated(n - 1).Rot; got != 0 {
				t.Fatalf("%v f=%d: rotation composition gave Rot %d", proto, f, got)
			}
		}
	}
}

func TestParseProtocol(t *testing.T) {
	for name, want := range map[string]Protocol{"sc": SC, "SCR": SCR, "Bft": BFT, "ct": CT} {
		if got, err := ParseProtocol(name); err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseProtocol("paxos"); err == nil {
		t.Error("unknown protocol accepted")
	}
}
