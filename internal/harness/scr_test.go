package harness

import (
	"fmt"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/fsp"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/types"
)

// The SCR tests exercise the Signal-on-Crash and Recovery extension
// (Section 4.4) end to end. It lives in internal/core behind the types.SCR
// topology: n = 3f+2, view-based coordinator rotation with Unwilling
// messages, and optimistic pair recovery after false timing suspicions.

func scrCluster(t *testing.T, mutate func(*Options)) *Cluster {
	t.Helper()
	opts := Options{
		Protocol:         types.SCR,
		F:                2,
		BatchInterval:    10 * time.Millisecond,
		MaxBatchBytes:    1024,
		Delta:            150 * time.Millisecond,
		RecoveryInterval: 100 * time.Millisecond,
		Mirror:           true,
		Net:              netsim.LANDefaults(),
		Seed:             1,
		KeepCommits:      true,
	}
	if mutate != nil {
		mutate(&opts)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.Start()
	return c
}

func submit(t *testing.T, c *Cluster, n, size int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := c.Submit(0, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		c.RunFor(3 * time.Millisecond)
	}
}

func assertAgreement(t *testing.T, c *Cluster, minFull, minLen int) {
	t.Helper()
	seqs := make(map[types.NodeID][]string)
	for _, ev := range c.Events.Commits() {
		for i, e := range ev.Entries {
			seqs[ev.Node] = append(seqs[ev.Node], fmt.Sprintf("%d:%v", ev.FirstSeq+types.Seq(i), e.Req))
		}
	}
	var longest []string
	for _, s := range seqs {
		if len(s) > len(longest) {
			longest = s
		}
	}
	if len(longest) < minLen {
		t.Fatalf("longest delivery %d < %d", len(longest), minLen)
	}
	full := 0
	for node, s := range seqs {
		for i := range s {
			if s[i] != longest[i] {
				t.Fatalf("node %v diverges at %d: %s vs %s", node, i, s[i], longest[i])
			}
		}
		if len(s) == len(longest) {
			full++
		}
	}
	if full < minFull {
		t.Fatalf("%d processes delivered everything, want >= %d", full, minFull)
	}
}

func TestSCRTopology(t *testing.T) {
	c := scrCluster(t, nil)
	if c.Topo.N() != 8 || c.Topo.NumShadows() != 3 || c.Topo.NumCandidates() != 3 {
		t.Errorf("SCR f=2 topology: n=%d shadows=%d candidates=%d, want 8/3/3",
			c.Topo.N(), c.Topo.NumShadows(), c.Topo.NumCandidates())
	}
	for r := types.Rank(1); int(r) <= c.Topo.NumCandidates(); r++ {
		if _, _, paired, _ := c.Topo.Candidate(r); !paired {
			t.Errorf("SCR candidate %d is unpaired; only pairs may coordinate", r)
		}
	}
}

func TestSCRFailFreeOrdering(t *testing.T) {
	c := scrCluster(t, nil)
	submit(t, c, 15, 100)
	c.RunFor(500 * time.Millisecond)
	assertAgreement(t, c, 8, 15)
	if fs := c.Events.FailSignals(); len(fs) != 0 {
		t.Errorf("fail-free run emitted fail-signals: %+v", fs)
	}
}

func TestSCRValueFaultRotatesView(t *testing.T) {
	c := scrCluster(t, nil)
	submit(t, c, 5, 100)
	c.RunFor(300 * time.Millisecond)
	if err := c.InjectCoordinatorValueFault(); err != nil {
		t.Fatal(err)
	}
	c.RunFor(500 * time.Millisecond)
	installed := false
	for _, ev := range c.Events.Installs() {
		if ev.Rank == 2 {
			installed = true
		}
	}
	if !installed {
		t.Fatal("view 2 (pair 2) never installed")
	}
	submit(t, c, 6, 100)
	c.RunFor(500 * time.Millisecond)
	assertAgreement(t, c, 6, 10)
	// The value-domain failure is permanent at the detecting shadow.
	s1, _ := c.Topo.ShadowID(1)
	if got := c.SC[s1].Pair().Status(); got != fsp.PermanentlyDown {
		t.Errorf("pair 1 status at shadow = %v, want permanently_down", got)
	}
}

func TestSCRFalseSuspicionRecovery(t *testing.T) {
	c := scrCluster(t, nil)
	submit(t, c, 4, 100)
	c.RunFor(300 * time.Millisecond)

	// Sever the pair link of the acting coordinator: the shadow's
	// time-domain check fires on the next request even though both
	// members are correct (a false suspicion under assumption 3(b)(i)).
	p1, _ := c.Topo.ReplicaID(1)
	s1, _ := c.Topo.ShadowID(1)
	c.Fabric.Cut(p1, s1)
	submit(t, c, 1, 64)
	c.RunFor(time.Second)

	emitted := false
	for _, ev := range c.Events.FailSignals() {
		if ev.Emitter {
			emitted = true
		}
	}
	if !emitted {
		t.Fatal("no fail-signal after pair link cut")
	}
	// The system rotates to pair 2 and keeps ordering.
	c.RunFor(time.Second)
	submit(t, c, 4, 64)
	c.RunFor(500 * time.Millisecond)
	assertAgreement(t, c, 6, 8)

	// Heal the link: the pair's beats go through again and it recovers.
	c.Fabric.Heal(p1, s1)
	c.RunFor(2 * time.Second)
	recovered := map[types.NodeID]bool{}
	for _, ev := range c.Events.Recoveries() {
		recovered[ev.Node] = true
	}
	if !recovered[p1] || !recovered[s1] {
		t.Fatalf("pair 1 did not recover on both sides: %v", recovered)
	}
	if got := c.SC[p1].Pair().Status(); got != fsp.Up {
		t.Errorf("recovered pair status = %v, want up", got)
	}
	if got := c.SC[p1].Pair().Epoch(); got != 1 {
		t.Errorf("recovered pair epoch = %d, want 1", got)
	}
}

func TestSCRRecoveredPairCoordinatesAgain(t *testing.T) {
	c := scrCluster(t, nil)
	submit(t, c, 3, 64)
	c.RunFor(200 * time.Millisecond)

	// Falsely suspect pair 1 (link cut), rotate to pair 2, recover pair 1.
	p1, _ := c.Topo.ReplicaID(1)
	s1, _ := c.Topo.ShadowID(1)
	c.Fabric.Cut(p1, s1)
	submit(t, c, 1, 64)
	c.RunFor(1500 * time.Millisecond)
	c.Fabric.Heal(p1, s1)
	c.RunFor(2 * time.Second)

	// Now value-fault pair 2 (the acting coordinator of view 2): the view
	// moves to pair 3.
	if err := c.InjectValueFaultAt(2, 2); err != nil {
		t.Fatal(err)
	}
	submit(t, c, 2, 64)
	c.RunFor(2 * time.Second)

	// And value-fault pair 3 in view 3: the rotation wraps to the
	// recovered pair 1 (view 4), which must be willing and coordinate.
	if err := c.InjectValueFaultAt(3, 3); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)
	submit(t, c, 5, 64)
	c.RunFor(2 * time.Second)

	rank1Again := false
	for _, ev := range c.Events.Installs() {
		if ev.Rank == 1 && ev.Node == p1 {
			rank1Again = true
		}
	}
	if !rank1Again {
		t.Fatal("recovered pair 1 was never re-installed as coordinator")
	}
	assertAgreement(t, c, 4, 10)
}

func TestSCRUnwillingSkipsDownCandidate(t *testing.T) {
	c := scrCluster(t, nil)
	submit(t, c, 3, 64)
	c.RunFor(200 * time.Millisecond)

	// Take pair 2 permanently down first (it is not coordinating, so no
	// view change happens yet) ...
	if err := c.InjectValueFaultAt(2, 1); err != nil {
		t.Fatal(err)
	}
	c.RunFor(300 * time.Millisecond)
	// ... then kill the acting coordinator pair 1. View 2's candidate is
	// the down pair 2, which must answer Unwilling(2), pushing the system
	// to view 3 (pair 3).
	if err := c.InjectCoordinatorValueFault(); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)

	rank3 := false
	for _, ev := range c.Events.Installs() {
		if ev.Rank == 3 {
			rank3 = true
		}
	}
	if !rank3 {
		t.Fatal("view did not advance past the unwilling candidate to pair 3")
	}
	submit(t, c, 5, 64)
	c.RunFor(time.Second)
	assertAgreement(t, c, 4, 8)
}
