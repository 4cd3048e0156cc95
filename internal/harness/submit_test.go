package harness

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/node"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// raceEnabled is set by race_test.go: allocation counts do not hold under
// the race detector.
var raceEnabled bool

// TestSubmitBurstOnSimulator: Submit calls made between two scheduler
// steps queue on the client, and the first of their drains submits them
// all. Their IDs are drawn in call order, every order process commits them
// in that order, and each ID carries the payload it was submitted with.
func TestSubmitBurstOnSimulator(t *testing.T) {
	c, err := New(Options{Protocol: types.SC, Net: netsim.LANDefaults(), KeepCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.RunFor(10 * time.Millisecond)
	const n = 12
	ids := make([]message.ReqID, n)
	for i := range ids {
		if ids[i], err = c.Submit(0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if i > 0 && (ids[i].Client != ids[0].Client || ids[i].ClientSeq != ids[i-1].ClientSeq+1) {
			t.Fatalf("submission %d got ID %v after %v", i, ids[i], ids[i-1])
		}
	}
	c.RunFor(time.Second)
	for _, id := range c.Topo.AllProcesses() {
		var order []message.ReqID
		for _, ev := range c.Events.Commits() {
			if ev.Node != id {
				continue
			}
			for _, e := range ev.Entries {
				order = append(order, e.Req)
			}
		}
		if fmt.Sprint(order) != fmt.Sprint(ids) {
			t.Errorf("node %v committed %v, want the burst in submission order %v", id, order, ids)
		}
		for i, rid := range ids {
			if req, ok := c.OrderPool(id, 0).Get(rid); !ok || !bytes.Equal(req.Payload, []byte{byte(i)}) {
				t.Errorf("node %v: request %v is not the payload submitted under it", id, rid)
			}
		}
	}
}

// TestClusterSubmitAllocFree pins what Cluster.Submit costs its caller on
// a live cluster: nothing of its own (the caller's payload is not
// counted). A submission is queued on the client and injects the client's
// one drain function, bound once; before, every Submit wrapped itself in a
// closure. The client's loop is held during the measurement so that what
// is measured is Submit alone.
func TestClusterSubmitAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation floors do not hold under the race detector")
	}
	c, err := New(Options{Protocol: types.SC, Live: true, BatchInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	client := types.ClientID(0)
	payload := make([]byte, 128)
	var last message.ReqID
	submit := func() {
		if last, err = c.Submit(0, payload); err != nil {
			t.Fatal(err)
		}
	}
	onLoop := func(fn func()) {
		if err := c.Inject(client, func(runtime.Env) { fn() }); err != nil {
			t.Fatal(err)
		}
	}
	// hold parks the client's loop until the returned function releases
	// it and the submissions queued meanwhile have been drained.
	hold := func() (release func()) {
		held, gate, drained := make(chan struct{}), make(chan struct{}), make(chan struct{})
		onLoop(func() { close(held); <-gate })
		<-held
		return func() {
			close(gate)
			onLoop(func() { close(drained) })
			<-drained
		}
	}
	const runs = 100
	for range 2 { // grow both arrays of the client's queue and the loop's to a burst
		release := hold()
		for range runs + 1 {
			submit()
		}
		release()
	}
	// Let the warm-up commit everywhere, so the cluster is idle.
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		done := true
		for _, id := range c.Topo.AllProcesses() {
			done = done && c.Metric(id, 0, "sof_committed_entries_total") >= 2*(runs+1)
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the warm-up's %d requests did not commit everywhere", 2*(runs+1))
		}
	}
	release := hold()
	got := testing.AllocsPerRun(runs, submit)
	release()
	if got != 0 {
		t.Errorf("Cluster.Submit = %v allocs, want 0", got)
	}
	if c.AwaitCommit(20*time.Second, last) != 0 {
		t.Fatalf("the last submission %v never committed", last)
	}
}

// TestShadowDeferralIsObservable: a proposal that reaches the shadow
// before one of the requests it orders is deferred until the request
// arrives — here only through the payload fetch the shadow sends the
// primary one fetch window later, the client's link to the shadow being
// cut — and the deferral, its wait and the fetch are counted where an
// operator reads them.
func TestShadowDeferralIsObservable(t *testing.T) {
	c, err := New(Options{Protocol: types.SC, Net: netsim.LANDefaults()})
	if err != nil {
		t.Fatal(err)
	}
	shadow, _ := c.Topo.ShadowID(1)
	c.Fabric.Cut(types.ClientID(0), shadow)
	c.Start()
	id, err := c.Submit(0, []byte("reaches the shadow only by fetch"))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	if !c.Events.Committed(id) {
		t.Fatal("the request never committed")
	}
	reg, labels := c.RegistryOf(shadow), node.Labels(shadow, 0, 1)
	if got := reg.Value("sof_shadow_deferred_proposals_total", labels...); got != 1 {
		t.Errorf("sof_shadow_deferred_proposals_total = %v, want 1", got)
	}
	if got := reg.Histogram("sof_shadow_deferral_seconds", "", nil, labels...).Snapshot(); got.Count != 1 || got.Sum <= 0 {
		t.Errorf("sof_shadow_deferral_seconds count %d sum %v, want one positive wait", got.Count, got.Sum)
	}
	payload := reg.Value("sof_fetch_requests_total", append(labels, obs.L("what", "payload"))...)
	pulls := reg.Value("sof_fetch_requests_total", append(labels, obs.L("what", "pull"))...)
	if payload < 1 || pulls != 0 {
		t.Errorf("sof_fetch_requests_total payload %v pull %v, want a payload fetch and no pull", payload, pulls)
	}
}

// TestSubmitDuringClientOutage: while a TCP client is killed, Submit fails
// and leaves nothing behind, so the restarted client sends only what was
// submitted after it came back; IDs keep counting across the outage.
func TestSubmitDuringClientOutage(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	c, err := New(Options{Protocol: types.SC, BatchInterval: 5 * time.Millisecond,
		Live: true, Transport: types.TransportTCP, KeepCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	submitAndCommit(t, c, 3, 0)

	client := types.ClientID(0)
	if err := c.KillNode(client); err != nil {
		t.Fatal(err)
	}
	var refused []message.ReqID
	for i := range 5 {
		id, err := c.Submit(0, []byte{byte(100 + i)})
		if err == nil {
			t.Fatalf("submission %v through a killed client succeeded", id)
		}
		refused = append(refused, id)
	}
	if err := c.RestartNode(client); err != nil {
		t.Fatal(err)
	}
	var after []message.ReqID
	for i := range 3 {
		id, err := c.Submit(0, []byte{byte(200 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if last := refused[len(refused)-1]; id.ClientSeq <= last.ClientSeq {
			t.Fatalf("submission %v after the outage reuses an ID up to %v", id, last)
		}
		after = append(after, id)
	}
	if missing := c.AwaitCommit(20*time.Second, after...); missing != 0 {
		t.Fatalf("%d of the submissions after the restart never committed", missing)
	}
	// A refused submission would have been sent ahead of the later ones.
	for _, id := range refused {
		if c.Events.Committed(id) {
			t.Errorf("submission %v was refused during the outage but committed", id)
		}
	}
}
