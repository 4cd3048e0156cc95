package core_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/harness"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// burstN submits n requests back-to-back with no virtual time between
// them, so the pool fills faster than the batch interval drains it and
// the size trigger (not the timer) closes batches.
func burstN(t *testing.T, c *harness.Cluster, n, size int) {
	t.Helper()
	payload := make([]byte, size)
	for i := 0; i < n; i++ {
		if _, err := c.Submit(0, payload); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
}

// TestPipelinedBurstOverlapsProposals pins the tentpole behaviour: with
// the proposal window open, a burst of requests is closed into batches by
// the pool's size trigger and several proposals are outstanding at once,
// while delivery stays a total order with no fail-signals.
func TestPipelinedBurstOverlapsProposals(t *testing.T) {
	c := simCluster(t, func(o *harness.Options) {
		o.MaxInflightBatches = 8
		o.DigestOnlyAcks = true
	})
	burstN(t, c, 40, 200)
	c.RunFor(time.Second)

	assertTotalOrder(t, c, 7, 40)
	if fs := c.Events.FailSignals(); len(fs) != 0 {
		t.Errorf("pipelined fail-free run emitted fail-signals: %+v", fs)
	}
	if got := c.Events.MaxInflight(); got < 2 {
		t.Errorf("max inflight proposals = %d, want >= 2 (pipelining never overlapped)", got)
	}
	if got := c.Events.SizeTriggeredBatches(); got == 0 {
		t.Error("no size-triggered batch closes; burst was timer-paced")
	}
}

// TestPipelinedDefaultWindowMatchesLegacy pins that a window <= 1 (the
// default) keeps the legacy interval-paced proposer: a burst commits
// correctly and every batch close is timer-driven — the pool's size
// trigger never fires.
func TestPipelinedDefaultWindowMatchesLegacy(t *testing.T) {
	for _, window := range []int{0, 1} {
		c := simCluster(t, func(o *harness.Options) { o.MaxInflightBatches = window })
		burstN(t, c, 20, 200)
		c.RunFor(time.Second)

		assertTotalOrder(t, c, 7, 20)
		if got := c.Events.SizeTriggeredBatches(); got != 0 {
			t.Errorf("window %d: proposer closed %d batches on the size trigger, want 0 (timer-paced)", window, got)
		}
	}
}

// triggerSpacing is the arrival spacing of the size-trigger tests: wider
// than the ~2.7 ms of modelled CPU a client spends multicasting one request
// to seven processes, so requests reach the pool at the spacing they were
// submitted at.
const triggerSpacing = 4 * time.Millisecond

// pipelinedPrimary builds a virtual-time cluster with the proposal window
// open and a backstop interval several fills long (at triggerSpacing a
// batch takes tens of milliseconds to fill), on the HMAC suite — 32-byte
// digests, as the TCP deployments use. It returns the cluster with its
// acting primary and the per-entry batch overhead (EntryOverhead plus the
// digest size).
func pipelinedPrimary(t *testing.T) (c *harness.Cluster, primary types.NodeID, entryExtra int) {
	t.Helper()
	c = simCluster(t, func(o *harness.Options) {
		o.Suite = crypto.HMACSHA256
		o.BatchInterval = 100 * time.Millisecond
		o.MaxInflightBatches = 8
		o.DigestOnlyAcks = true
	})
	primary, _, _, err := c.Topo.Candidate(1)
	if err != nil {
		t.Fatalf("Candidate(1): %v", err)
	}
	if err := c.Inject(primary, func(env runtime.Env) { entryExtra = core.EntryOverhead + len(env.Digest(nil)) }); err != nil {
		t.Fatal(err)
	}
	c.RunFor(0)
	if entryExtra <= core.EntryOverhead {
		t.Fatal("digest size not learned from the primary's substrate")
	}
	return c, primary, entryExtra
}

// TestSizeTriggerClosesOnTheFillingArrival pins the trigger to the pop
// rule: uniform 128-byte requests at a fixed spacing close every
// size-triggered batch with as many entries as fit MaxBatchBytes, on the
// arrival that fills it, and strand nothing behind it — the old trigger
// (pending bytes >= MaxBatchBytes) waited for one request more than
// NextBatch would pop and left it pending for a whole further fill.
func TestSizeTriggerClosesOnTheFillingArrival(t *testing.T) {
	c, primary, entryExtra := pipelinedPrimary(t)
	const (
		size = 128
		tick = 200 * time.Microsecond
	)
	want := 1024 / (size + entryExtra) // floor(MaxBatchBytes / entry cost)
	proc, pool := c.SCProcess(primary), c.OrderPool(primary, 0)
	payload := make([]byte, size)
	checked := 0
	for i := 0; i < 40*want; i++ {
		if _, err := c.Submit(0, payload); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		for elapsed := time.Duration(0); elapsed < triggerSpacing; elapsed += tick {
			_, _, sized, timed := proc.BatchCloseStats()
			seq := proc.NextProposeSeq()
			c.RunFor(tick)
			_, _, sizedNow, timedNow := proc.BatchCloseStats()
			if sizedNow == sized || timedNow != timed {
				continue // no size-triggered close in this tick, or not it alone
			}
			if sizedNow != sized+1 {
				t.Fatalf("request %d: %d size-triggered closes within one arrival", i, sizedNow-sized)
			}
			if got := int(proc.NextProposeSeq() - seq); got != want {
				t.Fatalf("request %d closed a size-triggered batch of %d entries, want %d", i, got, want)
			}
			if got := pool.PendingCount(); got != 0 {
				t.Fatalf("request %d: the close it triggered stranded %d requests in the pool", i, got)
			}
			checked++
		}
	}
	if checked < 30 {
		t.Fatalf("only %d size-triggered closes observed in %d fills", checked, 40)
	}
	c.RunFor(time.Second)
	assertTotalOrder(t, c, 7, 40*want)
	if fs := c.Events.FailSignals(); len(fs) != 0 {
		t.Errorf("fail-free run emitted fail-signals: %+v", fs)
	}
}

// TestSizeTriggerMixedSizesStayWithinBudget runs requests of mixed sizes
// through the same trigger: whichever arrival closes a batch, no batch of
// more than one entry exceeds MaxBatchBytes by the pool's own measure, and
// the size trigger does fire.
func TestSizeTriggerMixedSizesStayWithinBudget(t *testing.T) {
	c, primary, entryExtra := pipelinedPrimary(t)
	rng := rand.New(rand.NewSource(7))
	cost := make(map[message.ReqID]int)
	const n = 400
	for i := 0; i < n; i++ {
		size := rng.Intn(400)
		id, err := c.Submit(0, make([]byte, size))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		cost[id] = size + entryExtra
		c.RunFor(triggerSpacing)
	}
	c.RunFor(time.Second)
	assertTotalOrder(t, c, 7, n)
	for _, ev := range c.Events.Commits() {
		if ev.Node != primary {
			continue
		}
		total := 0
		for _, e := range ev.Entries {
			total += cost[e.Req]
		}
		if len(ev.Entries) > 1 && total > 1024 {
			t.Errorf("batch at seq %d carries %d entries costing %d bytes, over MaxBatchBytes", ev.FirstSeq, len(ev.Entries), total)
		}
	}
	if got := c.Events.SizeTriggeredBatches(); got == 0 {
		t.Error("no size-triggered batch closes in a stream that fills a batch every few requests")
	}
}

// TestDeposeMidPipelineAbandonsWindow kills the primary's standing (value
// fault -> shadow fail-signal) while a pipelined burst is outstanding.
// The deposed primary must abandon its proposal window, and the cluster
// must keep a single total order across the fail-over.
func TestDeposeMidPipelineAbandonsWindow(t *testing.T) {
	c := simCluster(t, func(o *harness.Options) { o.MaxInflightBatches = 8 })
	burstN(t, c, 30, 200)
	c.RunFor(30 * time.Millisecond) // mid-burst: window occupied

	if err := c.InjectCoordinatorValueFault(); err != nil {
		t.Fatalf("inject: %v", err)
	}
	c.RunFor(time.Second)

	// More work must still commit under the new coordinator.
	burstN(t, c, 10, 200)
	c.RunFor(time.Second)

	assertTotalOrder(t, c, 5, 10)

	primary, _, _, err := c.Topo.Candidate(1)
	if err != nil {
		t.Fatalf("Candidate(1): %v", err)
	}
	if got := c.SCProcess(primary).InflightProposals(); got != 0 {
		t.Errorf("deposed primary still tracks %d inflight proposals, want 0", got)
	}
	emitted := false
	for _, ev := range c.Events.FailSignals() {
		if ev.Emitter {
			emitted = true
		}
	}
	if !emitted {
		t.Fatal("no fail-signal emitted for the faulty primary")
	}
}

// TestIdlePrimaryDisarmsBatchTimer pins the no-idle-spin satellite: with
// an empty pool the primary holds no armed batch timer, and a request
// arriving after a long idle stretch still commits (arm-on-demand).
func TestIdlePrimaryDisarmsBatchTimer(t *testing.T) {
	c := simCluster(t, nil)
	c.RunFor(500 * time.Millisecond) // idle: no client load at all

	primary, _, _, err := c.Topo.Candidate(1)
	if err != nil {
		t.Fatalf("Candidate(1): %v", err)
	}
	if c.SCProcess(primary).BatchTimerArmed() {
		t.Error("idle primary keeps its batch timer armed (timer spin)")
	}

	// Arm-on-demand: load after idle still commits.
	submitN(t, c, 3, 100)
	c.RunFor(500 * time.Millisecond)
	assertTotalOrder(t, c, 7, 3)

	c.RunFor(500 * time.Millisecond) // drained again
	if c.SCProcess(primary).BatchTimerArmed() {
		t.Error("primary re-armed its batch timer on an empty pool")
	}
}
