package harness

import (
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/node"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/replica"
	"github.com/sof-repro/sof/internal/types"
)

// fetchWindow is the batch interval of the payload-fetch tests, and with
// it the fetch throttle window: no body is fetched before a window passed.
const fetchWindow = 10 * time.Millisecond

// fetchCluster is a started simulated SC f = 1 cluster with the pipelined
// proposer, a fetch window of fetchWindow and a counter replica on every
// order process; cut and lag shape the client's links before it starts.
func fetchCluster(t *testing.T, delta time.Duration, shape func(c *Cluster)) *Cluster {
	t.Helper()
	c, err := New(Options{
		Protocol: types.SC, F: 1, Net: netsim.LANDefaults(),
		BatchInterval: fetchWindow, MaxInflightBatches: 8, Delta: delta,
		KeepCommits:  true,
		StateMachine: func() replica.StateMachine { return &replica.Counter{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	shape(c)
	c.Start()
	return c
}

// fetches returns how many payload FetchReqs and live CatchUpReq pulls a
// process sent.
func fetches(c *Cluster, id types.NodeID) (payload, pulls float64) {
	reg, labels := c.RegistryOf(id), node.Labels(id, 0, 1)
	payload = reg.Value("sof_fetch_requests_total", append(labels, obs.L("what", "payload"))...)
	pulls = reg.Value("sof_fetch_requests_total", append(labels, obs.L("what", "pull"))...)
	return payload, pulls
}

// commitTime returns when id first delivered a batch, or false.
func commitTime(c *Cluster, id types.NodeID) (time.Time, bool) {
	for _, ev := range c.Events.Commits() {
		if ev.Node == id && len(ev.Entries) > 0 {
			return ev.At, true
		}
	}
	return time.Time{}, false
}

// TestInFlightBodyIsNotFetched: a proposal that outruns the client's copy
// of its request on a slow (not broken) link is deferred at the shadow and
// endorsed when the copy lands. The body was in flight all along, so the
// shadow fetches nothing.
func TestInFlightBodyIsNotFetched(t *testing.T) {
	var shadow types.NodeID
	c := fetchCluster(t, 0, func(c *Cluster) {
		shadow, _ = c.Topo.ShadowID(1)
		// Well past the primary's proposal, well inside one fetch window.
		c.Fabric.Lag(types.ClientID(0), shadow, 3*time.Millisecond)
	})
	id, err := c.Submit(0, []byte("in flight to the shadow"))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	if !c.Events.Committed(id) {
		t.Fatal("the request never committed")
	}
	reg, labels := c.RegistryOf(shadow), node.Labels(shadow, 0, 1)
	if got := reg.Value("sof_shadow_deferred_proposals_total", labels...); got != 1 {
		t.Errorf("sof_shadow_deferred_proposals_total = %v, want 1: the proposal did not outrun its body", got)
	}
	if got := reg.Histogram("sof_shadow_deferral_seconds", "", nil, labels...).Snapshot(); got.Count != 1 || got.Sum <= 0 {
		t.Errorf("sof_shadow_deferral_seconds count %d sum %v, want one positive wait", got.Count, got.Sum)
	}
	if payload, pulls := fetches(c, shadow); payload != 0 || pulls != 0 {
		t.Errorf("the shadow sent %v payload fetches and %v pulls for a body in flight, want none", payload, pulls)
	}
}

// TestDeliveredStragglerFetchedLate: a process the client cannot reach
// delivers the batch without its body and fetches it from the primary one
// fetch window later — not at once, since the body is usually in flight
// — so its replica applies the batch then.
func TestDeliveredStragglerFetchedLate(t *testing.T) {
	var p3 types.NodeID
	c := fetchCluster(t, 0, func(c *Cluster) {
		p3, _ = c.Topo.ReplicaID(3)
		c.Fabric.Cut(types.ClientID(0), p3)
	})
	if _, err := c.Submit(0, []byte("reaches p3 only by fetch")); err != nil {
		t.Fatal(err)
	}
	rep := c.Replica(p3, 0)
	var applied time.Time
	for deadline := c.Now().Add(time.Second); applied.IsZero(); {
		if c.Now().After(deadline) {
			t.Fatal("p3's replica never applied the batch")
		}
		c.RunFor(100 * time.Microsecond)
		if seq, _ := rep.Applied(); seq >= 1 {
			applied = c.Now()
		}
	}
	delivered, ok := commitTime(c, p3)
	if !ok {
		t.Fatal("p3 applied a batch it never delivered")
	}
	if wait := applied.Sub(delivered); wait < fetchWindow || wait > 2*fetchWindow {
		t.Errorf("p3 applied the batch %v after delivering it, want one fetch window (%v) and a round trip", wait, fetchWindow)
	}
	if payload, pulls := fetches(c, p3); payload != 1 || pulls != 0 {
		t.Errorf("p3 sent %v payload fetches and %v pulls, want one payload fetch", payload, pulls)
	}
}

// TestDeposedPrimaryStragglersNotReasked: a straggler's body is asked of
// the batch's primary every fetch window while that primary is silent, and
// no more once its pair has fail-signalled: the straggler is committed
// history, so it survives the install and its body is asked of a live
// holder instead, which answers — p3's replica applies the batch as p2's
// does, and p3 stops asking.
func TestDeposedPrimaryStragglersNotReasked(t *testing.T) {
	var p1, p2, p3 types.NodeID
	c := fetchCluster(t, 50*time.Millisecond, func(c *Cluster) {
		p1, _ = c.Topo.ReplicaID(1)
		p2, _ = c.Topo.ReplicaID(2)
		p3, _ = c.Topo.ReplicaID(3)
		c.Fabric.Cut(types.ClientID(0), p3)
	})
	if _, err := c.Submit(0, []byte("its body dies with the primary")); err != nil {
		t.Fatal(err)
	}
	for deadline := c.Now().Add(time.Second); ; c.RunFor(100 * time.Microsecond) {
		if _, ok := commitTime(c, p3); ok {
			break
		}
		if c.Now().After(deadline) {
			t.Fatal("p3 never delivered the batch")
		}
	}
	// The primary dies before p3's first fetch; the next request reaches
	// p3 itself, and its order expectation at the shadow deposes p1.
	c.Crash(p1)
	c.Fabric.Heal(types.ClientID(0), p3)
	if _, err := c.Submit(0, []byte("ordered by the next coordinator")); err != nil {
		t.Fatal(err)
	}
	installed := func() bool {
		for _, ev := range c.Events.Installs() {
			if ev.Node == p3 {
				return true
			}
		}
		return false
	}
	for deadline := c.Now().Add(5 * time.Second); !installed(); c.RunFor(time.Millisecond) {
		if c.Now().After(deadline) {
			t.Fatal("p3 never installed the next coordinator")
		}
	}
	asked, _ := fetches(c, p3)
	if asked < 2 {
		t.Errorf("p3 asked the silent primary %v times before the install, want a re-ask every fetch window", asked)
	}
	c.RunFor(20 * fetchWindow)
	// Asked of the dead primary, the body would never come and p3 would
	// re-ask every window; asked of a live holder, one ask brings it.
	if again, _ := fetches(c, p3); again > asked+1 {
		t.Errorf("p3 sent %v payload fetches after installing the next coordinator, want at most one, to a live holder", again-asked)
	}
	got, _ := c.Replica(p3, 0).Applied()
	want, _ := c.Replica(p2, 0).Applied()
	if got < want || want < 1 {
		t.Errorf("after the install p3's replica applied up to %d and p2's up to %d, want p3 level with p2", got, want)
	}
}
