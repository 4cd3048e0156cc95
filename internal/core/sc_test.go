package core_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/harness"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/types"
)

// simCluster builds a virtual-time SC cluster with fast test parameters.
func simCluster(t *testing.T, mutate func(*harness.Options)) *harness.Cluster {
	t.Helper()
	opts := harness.Options{
		Protocol:         types.SC,
		F:                2,
		BatchInterval:    10 * time.Millisecond,
		MaxBatchBytes:    1024,
		Delta:            2 * time.Second,
		Mirror:           true,
		DumbOptimization: true,
		Net:              netsim.LANDefaults(),
		Seed:             1,
		KeepCommits:      true,
	}
	if mutate != nil {
		mutate(&opts)
	}
	c, err := harness.New(opts)
	if err != nil {
		t.Fatalf("harness.New: %v", err)
	}
	c.Start()
	return c
}

func submitN(t *testing.T, c *harness.Cluster, n int, size int) {
	t.Helper()
	payload := make([]byte, size)
	for i := 0; i < n; i++ {
		if _, err := c.Submit(0, payload); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		c.RunFor(2 * time.Millisecond)
	}
}

// commitsAt returns per-node sequences of committed entries in delivery
// order, built from retained commit events.
func commitsAt(c *harness.Cluster) map[types.NodeID][]string {
	out := make(map[types.NodeID][]string)
	for _, ev := range c.Events.Commits() {
		for i, e := range ev.Entries {
			out[ev.Node] = append(out[ev.Node],
				fmt.Sprintf("%d:%v", ev.FirstSeq+types.Seq(i), e.Req))
		}
	}
	return out
}

// assertTotalOrder checks that every process delivered a prefix of the
// longest delivery sequence (safety: identical sequences everywhere).
func assertTotalOrder(t *testing.T, c *harness.Cluster, minProcs, minEntries int) []string {
	t.Helper()
	seqs := commitsAt(c)
	var longest []string
	for _, s := range seqs {
		if len(s) > len(longest) {
			longest = s
		}
	}
	if len(longest) < minEntries {
		t.Fatalf("longest delivery has %d entries, want >= %d", len(longest), minEntries)
	}
	full := 0
	for node, s := range seqs {
		for i, v := range s {
			if longest[i] != v {
				t.Fatalf("node %v diverges at %d: %q vs %q", node, i, v, longest[i])
			}
		}
		if len(s) == len(longest) {
			full++
		}
	}
	if full < minProcs {
		t.Fatalf("only %d processes delivered the full sequence, want >= %d", full, minProcs)
	}
	return longest
}

func TestFailFreeOrdering(t *testing.T) {
	c := simCluster(t, nil)
	submitN(t, c, 20, 100)
	c.RunFor(500 * time.Millisecond)
	longest := assertTotalOrder(t, c, 7, 20)
	if len(longest) != 20 {
		t.Errorf("delivered %d entries, want exactly 20", len(longest))
	}
	if got := c.Events.LatencySummary(); got.Count == 0 {
		t.Error("no latency samples recorded")
	}
	if fs := c.Events.FailSignals(); len(fs) != 0 {
		t.Errorf("fail-free run emitted fail-signals: %+v", fs)
	}
}

func TestFailFreeOrderingF3(t *testing.T) {
	c := simCluster(t, func(o *harness.Options) { o.F = 3 })
	submitN(t, c, 12, 100)
	c.RunFor(500 * time.Millisecond)
	assertTotalOrder(t, c, 10, 12)
}

func TestOrderLatencyReasonable(t *testing.T) {
	// With the HMAC suite and LAN defaults the commit path is a few
	// milliseconds of modelled CPU + network; sanity-check the bounds.
	c := simCluster(t, nil)
	// Space submissions so several distinct batches form.
	for i := 0; i < 10; i++ {
		if _, err := c.Submit(0, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		c.RunFor(15 * time.Millisecond)
	}
	c.RunFor(time.Second)
	sum := c.Events.LatencySummary()
	if sum.Count < 5 {
		t.Fatalf("only %d latency samples", sum.Count)
	}
	if sum.Mean < 500*time.Microsecond || sum.Mean > 50*time.Millisecond {
		t.Errorf("mean latency %v outside sane band", sum.Mean)
	}
}

func TestValueFaultTriggersFailOver(t *testing.T) {
	c := simCluster(t, nil)
	// Commit some work under C1 first.
	submitN(t, c, 5, 100)
	c.RunFor(300 * time.Millisecond)

	if err := c.InjectCoordinatorValueFault(); err != nil {
		t.Fatalf("inject: %v", err)
	}
	c.RunFor(300 * time.Millisecond)

	// The shadow must have emitted a fail-signal...
	emitted := false
	for _, ev := range c.Events.FailSignals() {
		if ev.Emitter && ev.Pair == 1 {
			emitted = true
		}
	}
	if !emitted {
		t.Fatal("no fail-signal emitted for pair 1")
	}
	// ... and the cluster must have installed candidate 2 everywhere that
	// is not the old pair.
	installs := c.Events.Installs()
	nodes := map[types.NodeID]bool{}
	for _, ev := range installs {
		if ev.Rank == 2 {
			nodes[ev.Node] = true
		}
	}
	if len(nodes) < c.Topo.Quorum() {
		t.Fatalf("only %d processes installed rank 2: %v", len(nodes), installs)
	}
	if d, ok := c.Events.FailOverLatency(); !ok || d <= 0 {
		t.Errorf("fail-over latency not measured: %v %v", d, ok)
	}

	// Ordering must continue under the new coordinator.
	before := c.Events.BatchCount()
	submitN(t, c, 8, 100)
	c.RunFor(500 * time.Millisecond)
	if after := c.Events.BatchCount(); after <= before {
		t.Errorf("no batches committed after fail-over (%d -> %d)", before, after)
	}
	assertTotalOrder(t, c, 5, 10)
}

func TestCrashedPrimaryTimeDomainFailOver(t *testing.T) {
	c := simCluster(t, func(o *harness.Options) { o.Delta = 100 * time.Millisecond })
	submitN(t, c, 3, 100)
	c.RunFor(200 * time.Millisecond)

	// Crash p1; a pending request then goes unordered and the shadow's
	// per-request expectation fires after BatchInterval + Delta.
	p1, _ := c.Topo.ReplicaID(1)
	s1, _ := c.Topo.ShadowID(1)
	c.Crash(p1)
	unordered, err := c.Submit(0, make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)

	var reason string
	for _, ev := range c.Events.FailSignals() {
		if ev.Emitter && ev.Node == s1 {
			reason = ev.Reason
		}
	}
	// The reason is rendered from the typed expectation key only now, at
	// failure time; it must still tell an operator what was missed.
	if want := fmt.Sprintf("time-domain: order decision for %v", unordered); reason != want {
		t.Fatalf("shadow's fail-signal reason after primary crash = %q, want %q", reason, want)
	}
	// Fail-over completes and the new regime orders the pending request.
	c.RunFor(2 * time.Second)
	installed := false
	for _, ev := range c.Events.Installs() {
		if ev.Rank == 2 {
			installed = true
		}
	}
	if !installed {
		t.Fatal("rank 2 never installed after crash")
	}
	assertTotalOrder(t, c, 4, 4)
}

func TestCrashedShadowTimeDomainFailOver(t *testing.T) {
	c := simCluster(t, func(o *harness.Options) { o.Delta = 100 * time.Millisecond })
	s1, _ := c.Topo.ShadowID(1)
	c.Crash(s1)
	// The primary proposes, gets no endorsement, and fail-signals.
	submitN(t, c, 2, 64)
	c.RunFor(2 * time.Second)
	emitted := false
	for _, ev := range c.Events.FailSignals() {
		if ev.Emitter && ev.Node != s1 {
			emitted = true
		}
	}
	if !emitted {
		t.Fatal("primary did not fail-signal its crashed shadow")
	}
	assertTotalOrder(t, c, 4, 2)
}

func TestDoubleFailOverReachesUnpairedCandidate(t *testing.T) {
	c := simCluster(t, func(o *harness.Options) { o.Delta = 100 * time.Millisecond })
	submitN(t, c, 3, 64)
	c.RunFor(200 * time.Millisecond)

	// Kill pair 1 via value fault, then pair 2 via primary crash.
	if err := c.InjectCoordinatorValueFault(); err != nil {
		t.Fatal(err)
	}
	c.RunFor(500 * time.Millisecond)
	p2, _ := c.Topo.ReplicaID(2)
	c.Crash(p2)
	if _, err := c.Submit(0, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	c.RunFor(3 * time.Second)

	rank3 := false
	for _, ev := range c.Events.Installs() {
		if ev.Rank == 3 {
			rank3 = true
		}
	}
	if !rank3 {
		t.Fatal("the unpaired candidate C3 was never installed")
	}
	// The unpaired coordinator orders with single-signed batches.
	submitN(t, c, 5, 64)
	c.RunFor(time.Second)
	assertTotalOrder(t, c, 3, 8)
}

func TestDumbProcessesStopTransmitting(t *testing.T) {
	c := simCluster(t, nil)
	submitN(t, c, 3, 64)
	c.RunFor(300 * time.Millisecond)
	if err := c.InjectCoordinatorValueFault(); err != nil {
		t.Fatal(err)
	}
	c.RunFor(500 * time.Millisecond)

	// After installation, the old pair is dumb: new batches commit without
	// it and it sends no acks. Reset counters and order more work.
	c.Fabric.ResetCounters()
	submitN(t, c, 5, 64)
	c.RunFor(500 * time.Millisecond)
	p1, _ := c.Topo.ReplicaID(1)
	proc := c.SC[p1]
	if proc.Rank() != 2 || !proc.Installed() {
		t.Fatalf("old primary state: rank=%d installed=%v", proc.Rank(), proc.Installed())
	}
	// The old pair still executes: it delivers new commits.
	if got := proc.MaxDelivered(); got == 0 {
		t.Error("dumb process stopped executing the protocol")
	}
	assertTotalOrder(t, c, 5, 8)
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []string {
		c := simCluster(t, func(o *harness.Options) {
			o.Load = &harness.LoadSpec{RequestBytes: 100, Interval: 5 * time.Millisecond, Count: 30}
		})
		c.RunFor(2 * time.Second)
		return assertTotalOrder(t, c, 7, 30)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestLiveSubstrateOrdering(t *testing.T) {
	opts := harness.Options{
		Protocol:         types.SC,
		F:                2,
		BatchInterval:    5 * time.Millisecond,
		MaxBatchBytes:    1024,
		Delta:            5 * time.Second,
		Mirror:           true,
		DumbOptimization: true,
		Seed:             3,
		KeepCommits:      true,
		Live:             true,
	}
	c, err := harness.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	payload := make([]byte, 100)
	for i := 0; i < 10; i++ {
		if _, err := c.Submit(0, payload); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.Events.BatchCount() >= 1 && len(commitsAt(c)) >= 7 {
			all := commitsAt(c)
			done := 0
			for _, s := range all {
				if len(s) >= 10 {
					done++
				}
			}
			if done >= 7 {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	assertTotalOrder(t, c, 7, 10)
	if fs := c.Events.FailSignals(); len(fs) != 0 {
		t.Errorf("live fail-free run emitted fail-signals: %+v", fs)
	}
}

func TestPoolBasics(t *testing.T) {
	pool := core.NewRequestPool()
	req := &message.Request{Client: types.ClientID(0), ClientSeq: 1, Payload: []byte("abc")}
	if !pool.Add(req) {
		t.Fatal("Add returned false for new request")
	}
	if pool.Add(req) {
		t.Fatal("Add returned true for duplicate")
	}
	if _, ok := pool.Get(req.ID()); !ok {
		t.Fatal("Get failed")
	}
	called := false
	pool.WhenAvailable(req.ID(), func(*message.Request) { called = true })
	if !called {
		t.Error("WhenAvailable not immediate for known request")
	}
	var got *message.Request
	future := message.ReqID{Client: types.ClientID(0), ClientSeq: 2}
	pool.WhenAvailable(future, func(r *message.Request) { got = r })
	req2 := &message.Request{Client: types.ClientID(0), ClientSeq: 2}
	pool.Add(req2)
	if got != req2 {
		t.Error("WhenAvailable callback not fired on arrival")
	}

	batch := pool.NextBatch(4096, 16)
	if len(batch) != 2 {
		t.Fatalf("NextBatch returned %d requests, want 2", len(batch))
	}
	if !pool.IsOrdered(req.ID()) || !pool.IsOrdered(req2.ID()) {
		t.Error("NextBatch did not mark requests ordered")
	}
	if more := pool.NextBatch(4096, 16); len(more) != 0 {
		t.Errorf("second NextBatch returned %d", len(more))
	}
	pool.UnmarkOrdered(req.ID())
	if again := pool.NextBatch(4096, 16); len(again) != 1 || again[0] != req {
		t.Errorf("UnmarkOrdered did not requeue: %v", again)
	}
}

func TestPoolBatchSizeLimit(t *testing.T) {
	pool := core.NewRequestPool()
	for i := 0; i < 10; i++ {
		pool.Add(&message.Request{Client: types.ClientID(0), ClientSeq: uint64(i + 1),
			Payload: make([]byte, 300)})
	}
	// Each entry costs ~300+24+16 = 340 bytes; a 1 KB cap fits 3.
	batch := pool.NextBatch(1024, 16)
	if len(batch) != 3 {
		t.Errorf("NextBatch(1KB) returned %d requests, want 3", len(batch))
	}
	// An oversized single request is still ordered alone.
	pool2 := core.NewRequestPool()
	pool2.Add(&message.Request{Client: types.ClientID(0), ClientSeq: 1, Payload: make([]byte, 5000)})
	if got := pool2.NextBatch(1024, 16); len(got) != 1 {
		t.Errorf("oversized request not ordered: %d", len(got))
	}
}
