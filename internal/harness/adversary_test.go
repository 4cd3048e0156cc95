package harness

// Tests for the adversarial process twins on the virtual-time simulator:
// fast, deterministic checks that each tap corrupts the wire the way its
// attacker model says, and that the protocol's defences hold — the
// scenario campaign (scenarios.go) exercises the same adversaries on the
// real TCP substrate.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/types"
)

func advCluster(t *testing.T, mutate func(*Options)) *Cluster {
	t.Helper()
	opts := Options{
		Protocol:      types.SC,
		F:             1,
		BatchInterval: 10 * time.Millisecond,
		MaxBatchBytes: 1024,
		Delta:         2 * time.Second,
		Mirror:        true,
		Net:           netsim.LANDefaults(),
		Seed:          1,
		KeepCommits:   true,
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

func advSubmitN(t *testing.T, c *Cluster, n int) {
	t.Helper()
	payload := make([]byte, 64)
	for i := 0; i < n; i++ {
		if _, err := c.Submit(0, payload); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		c.RunFor(2 * time.Millisecond)
	}
}

// honestOrder asserts the single-total-order invariant over every process
// not in exclude and returns the longest delivery.
func honestOrder(t *testing.T, c *Cluster, exclude map[types.NodeID]bool, minEntries int) {
	t.Helper()
	seqs := make(map[types.NodeID][]string)
	for _, ev := range c.Events.Commits() {
		if exclude[ev.Node] {
			continue
		}
		for i, e := range ev.Entries {
			seqs[ev.Node] = append(seqs[ev.Node],
				fmt.Sprintf("%d:%v", ev.FirstSeq+types.Seq(i), e.Req))
		}
	}
	var longest []string
	for _, s := range seqs {
		if len(s) > len(longest) {
			longest = s
		}
	}
	if len(longest) < minEntries {
		t.Fatalf("longest honest delivery has %d entries, want >= %d", len(longest), minEntries)
	}
	for node, s := range seqs {
		for i, v := range s {
			if longest[i] != v {
				t.Fatalf("honest node %v diverges at %d: %q vs %q", node, i, v, longest[i])
			}
		}
	}
}

func TestAdversaryConfigValidation(t *testing.T) {
	topo, err := types.NewTopology(types.SC, 1)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := topo.ReplicaID(1)
	p2, _ := topo.ReplicaID(2)
	s1, _ := topo.ShadowID(1)

	cases := []struct {
		name string
		id   types.NodeID
		kind AdversaryKind
	}{
		{name: "equivocator must be a paired primary, not a shadow", id: s1, kind: AdversaryEquivocatingPrimary},
		{name: "equivocator must be paired, not the lone candidate", id: p2, kind: AdversaryEquivocatingPrimary},
		{name: "suppressor must be a shadow", id: p1, kind: AdversarySignalSuppressor},
		{name: "unknown kind", id: p1, kind: AdversaryKind("made-up")},
		{name: "not a process", id: types.NodeID(99), kind: AdversaryStaleReplayer},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := newAdversaryTap(tc.kind, tc.id, topo, 1); err == nil {
				t.Fatalf("tap %v on %v accepted", tc.kind, tc.id)
			}
		})
	}

	if _, err := New(Options{
		Protocol: types.CT, F: 1,
		BatchInterval: 10 * time.Millisecond, MaxBatchBytes: 1024, Delta: time.Second,
		Net: netsim.LANDefaults(), KeepCommits: true,
		Adversaries: map[types.NodeID]AdversaryKind{0: AdversaryStaleReplayer},
	}); err == nil {
		t.Fatal("Adversaries accepted under CT (no Tap seam there)")
	}
}

// TestEquivocatingPrimaryFailOver: the twin batch must be refused by the
// shadow (a value-domain conflict), the pair must fail-signal, the regime
// must move on, and the honest replicas must keep one total order.
func TestEquivocatingPrimaryFailOver(t *testing.T) {
	topo, _ := types.NewTopology(types.SC, 1)
	p1, _ := topo.ReplicaID(1)
	c := advCluster(t, func(o *Options) {
		o.Adversaries = map[types.NodeID]AdversaryKind{p1: AdversaryEquivocatingPrimary}
	})
	defer c.Stop()

	advSubmitN(t, c, 40)
	c.RunFor(5 * time.Second)

	kind, stats, ok := c.Adversary(p1)
	if !ok || kind != AdversaryEquivocatingPrimary {
		t.Fatalf("Adversary(p1) = %v, %v", kind, ok)
	}
	if stats.Matched == 0 || stats.Injected == 0 {
		t.Fatalf("equivocator never fired: %+v", stats)
	}

	maxRank := types.Rank(1)
	for _, ev := range c.Events.Installs() {
		if ev.Rank > maxRank {
			maxRank = ev.Rank
		}
	}
	if maxRank < 2 {
		t.Fatalf("no fail-over: regime still at rank %d after equivocation", maxRank)
	}
	signalled := false
	for _, ev := range c.Events.FailSignals() {
		if ev.Emitter && ev.Pair == 1 {
			signalled = true
		}
	}
	if !signalled {
		t.Fatal("no fail-signal emitted for the equivocating pair")
	}
	honestOrder(t, c, map[types.NodeID]bool{p1: true}, 20)
}

// TestSignalSuppressorFailOver: the shadow detects the injected value fault
// but its fail-signal never leaves the node; fail-over must still complete
// via the primary's own time-domain expectation (mutual-check redundancy).
func TestSignalSuppressorFailOver(t *testing.T) {
	topo, _ := types.NewTopology(types.SC, 1)
	p1, _ := topo.ReplicaID(1)
	s1, _ := topo.ShadowID(1)
	c := advCluster(t, func(o *Options) {
		o.Delta = 500 * time.Millisecond
		o.Adversaries = map[types.NodeID]AdversaryKind{s1: AdversarySignalSuppressor}
	})
	defer c.Stop()

	advSubmitN(t, c, 10)
	if err := c.InjectCoordinatorValueFault(); err != nil {
		t.Fatalf("InjectCoordinatorValueFault: %v", err)
	}
	advSubmitN(t, c, 10)
	c.RunFor(5 * time.Second)

	_, stats, _ := c.Adversary(s1)
	if stats.Dropped == 0 {
		t.Fatalf("suppressor never dropped a fail-signal: %+v", stats)
	}
	maxRank := types.Rank(1)
	for _, ev := range c.Events.Installs() {
		if ev.Rank > maxRank {
			maxRank = ev.Rank
		}
	}
	if maxRank < 2 {
		t.Fatal("fail-over never completed with the shadow's fail-signals suppressed")
	}
	primarySignalled := false
	for _, ev := range c.Events.FailSignals() {
		if ev.Emitter && ev.Node == p1 {
			primarySignalled = true
		}
	}
	if !primarySignalled {
		t.Fatal("fail-over did not route through the primary's own time-domain check")
	}
	honestOrder(t, c, map[types.NodeID]bool{s1: true}, 10)
}

// TestStaleReplayerHarmless: duplicated and out-of-date protocol messages
// must be absorbed idempotently — no spurious fail-signals, no fail-over,
// ordering undisturbed.
func TestStaleReplayerHarmless(t *testing.T) {
	topo, _ := types.NewTopology(types.SC, 1)
	p2, _ := topo.ReplicaID(2)
	c := advCluster(t, func(o *Options) {
		o.Adversaries = map[types.NodeID]AdversaryKind{p2: AdversaryStaleReplayer}
	})
	defer c.Stop()

	advSubmitN(t, c, 60)
	c.RunFor(2 * time.Second)

	_, stats, _ := c.Adversary(p2)
	if stats.Injected == 0 {
		t.Fatalf("replayer never replayed anything: %+v", stats)
	}
	if n := len(c.Events.Installs()); n > 0 {
		t.Fatalf("%d regime installs under pure replay (want none)", n)
	}
	for _, ev := range c.Events.FailSignals() {
		if ev.Emitter {
			t.Fatalf("spurious fail-signal under replay: %+v", ev)
		}
	}
	honestOrder(t, c, nil, 40)
}

// TestScenarioWANSweepShort drives one short fail-free campaign scenario
// end-to-end (real TCP, shaped LAN profile) so the scenario runner itself
// stays covered by go test; the full campaign runs via sofbench
// -scenarios.
func TestScenarioWANSweepShort(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time scenario; skipped in -short")
	}
	g := &campaign{
		rng:     rand.New(rand.NewSource(5)),
		seed:    5,
		dataDir: t.TempDir(),
		logf:    t.Logf,
	}
	pt := g.wanSweep("lan", 1500*time.Millisecond)
	if len(pt.Violations) > 0 {
		t.Fatalf("scenario violations: %v", pt.Violations)
	}
	if pt.Committed == 0 || pt.Lost != 0 {
		t.Fatalf("committed=%d lost=%d", pt.Committed, pt.Lost)
	}
}
