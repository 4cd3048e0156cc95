package core_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/harness"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/obs"
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
// submitted at, and narrow enough that a batch fills while the one before
// it is still in flight — only then can the size trigger close it.
const triggerSpacing = 3500 * time.Microsecond

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

// proposerTick is the primary's proposer state at the end of one tick of
// virtual time: pool depth, proposal counter, delivery watermark, and the
// size-triggered and other closes so far.
type proposerTick struct {
	pending   int
	next      types.Seq
	delivered types.Seq
	sized     uint64
	other     uint64
}

func proposerState(c *harness.Cluster, primary types.NodeID) proposerTick {
	proc := c.SCProcess(primary)
	_, _, sized, other := proc.BatchCloseStats()
	return proposerTick{pending: c.OrderPool(primary, 0).PendingCount(), next: proc.NextProposeSeq(),
		delivered: proc.MaxDelivered(), sized: sized, other: other}
}

// closeRuleTick is the step of the close-rule tests: far finer than a
// request's multicast or a batch's round trip on the modelled LAN.
const closeRuleTick = 50 * time.Microsecond

// TestIdlePipelinedPrimaryProposesAtArrival pins the first half of the
// close rule: a lone request reaching a pipelined primary with nothing in
// flight is proposed in the tick it arrives, as an idle close, not a
// BatchInterval (100 ms here) later — and commits long before the
// interval would have closed it.
func TestIdlePipelinedPrimaryProposesAtArrival(t *testing.T) {
	c, primary, _ := pipelinedPrimary(t)
	if _, err := c.Submit(0, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	var s proposerTick
	for elapsed := time.Duration(0); ; elapsed += closeRuleTick {
		if elapsed > 20*time.Millisecond {
			t.Fatal("the request never reached the primary")
		}
		c.RunFor(closeRuleTick)
		if s = proposerState(c, primary); s.pending > 0 || s.next > 1 {
			break
		}
	}
	if s.next != 2 || s.pending != 0 {
		t.Fatalf("the request reached the idle primary's pool and was not proposed at arrival: next %d, %d pending", s.next, s.pending)
	}
	if s.sized != 0 || s.other != 1 {
		t.Errorf("closes: %d size-triggered, %d other; want one idle close", s.sized, s.other)
	}
	idle := c.RegistryOf(primary).Value("sof_batch_closes_total", obs.L("node", primary.String()), obs.L("trigger", "idle"))
	if idle != 1 {
		t.Errorf("sof_batch_closes_total{trigger=\"idle\"} = %v, want 1", idle)
	}
	c.RunFor(20 * time.Millisecond)
	assertTotalOrder(t, c, 7, 1)
}

// TestArrivalsDuringInflightBatchGoOutTogether pins the second half: a
// request reaching the primary while a batch is in flight waits until
// the arrivals fill a batch or a commit drains the window, and then
// everything waiting goes out as one batch. One request goes out alone
// at its arrival; one from each of eight clients arrives while it is in
// flight: five fill a batch and go out on the size trigger, and three
// wait — through the commit of the first batch, which leaves the full one
// in flight — until the full one commits and drains the window, when the
// three are proposed together.
func TestArrivalsDuringInflightBatchGoOutTogether(t *testing.T) {
	const clients = 8
	c := simCluster(t, func(o *harness.Options) {
		o.Suite = crypto.HMACSHA256
		o.BatchInterval = 100 * time.Millisecond
		o.MaxInflightBatches = 8
		o.NumClients = clients
	})
	primary, _, _, err := c.Topo.Candidate(1)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 128)
	if _, err := c.Submit(0, payload); err != nil {
		t.Fatal(err)
	}
	s := proposerState(c, primary)
	for elapsed := time.Duration(0); s.next == 1; elapsed += closeRuleTick {
		if elapsed > 20*time.Millisecond {
			t.Fatal("the first request was never proposed")
		}
		c.RunFor(closeRuleTick)
		s = proposerState(c, primary)
	}
	for k := 0; k < clients; k++ {
		if _, err := c.Submit(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	const full = 5 // 128-byte requests in a 1 KB batch
	const left = clients - full
	waitedThroughCommit := false
	for elapsed := time.Duration(0); s.delivered < 1+full; elapsed += closeRuleTick {
		if elapsed > 200*time.Millisecond {
			t.Fatalf("the full batch never committed at the primary (delivered %d)", s.delivered)
		}
		c.RunFor(closeRuleTick)
		after := proposerState(c, primary)
		switch {
		case after.delivered < 1+full && after.next != 2 && after.next != 2+full:
			t.Fatalf("seqs %d..%d were proposed while the window held a batch (delivered %d)",
				2, after.next-1, after.delivered)
		case after.delivered < 1+full && after.next == 2+full && after.sized != 1:
			t.Fatalf("%d size-triggered closes, want the one full batch", after.sized)
		case after.delivered >= 1+full && (after.next != s.next+left || after.pending != 0):
			t.Fatalf("the commit that drained the window proposed seqs %d..%d and left %d pending, want the %d waiting requests as one batch",
				s.next, after.next-1, after.pending, left)
		}
		if after.delivered >= 1 && after.delivered < 1+full && after.pending == left {
			waitedThroughCommit = true
		}
		s = after
	}
	if !waitedThroughCommit {
		t.Fatal("the first batch's commit, with the full batch in flight, never found the rest waiting")
	}
	if s.sized != 1 || s.other != 2 {
		t.Errorf("closes: %d size-triggered, %d other; want one full batch and two idle closes", s.sized, s.other)
	}
	c.RunFor(50 * time.Millisecond)
	assertTotalOrder(t, c, 7, 1+clients)
	if fs := c.Events.FailSignals(); len(fs) != 0 {
		t.Errorf("fail-free run emitted fail-signals: %+v", fs)
	}
}

// TestSizeCloseRestartsBackstop pins the backstop's deadline: a close
// restarts it, so a timer armed for a request that went out in a
// size-triggered batch does not flush the newer remainder early. The
// primary is cut off from every acker but its shadow, so its batches stay
// in flight and only the backstop can close what waits. One request goes
// out alone; a second arrives and arms the backstop; 60 ms later six more
// arrive, four of which fill a batch with the second, so two wait. They
// must wait a full interval from that close, not from the second's
// arrival.
func TestSizeCloseRestartsBackstop(t *testing.T) {
	const clients = 8
	const interval = 100 * time.Millisecond
	c := simCluster(t, func(o *harness.Options) {
		o.Suite = crypto.HMACSHA256
		o.BatchInterval = interval
		o.MaxInflightBatches = 8
		o.NumClients = clients
	})
	primary, shadow, _, err := c.Topo.Candidate(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range c.Topo.AllProcesses() {
		if id != primary && id != shadow {
			c.Fabric.Cut(primary, id)
		}
	}
	payload := make([]byte, 128)
	submitAndSettle := func(client int) {
		t.Helper()
		if _, err := c.Submit(client, payload); err != nil {
			t.Fatal(err)
		}
		c.RunFor(5 * time.Millisecond)
	}
	submitAndSettle(0) // proposed at arrival: the window was empty
	armed := c.Now()
	submitAndSettle(1) // waits behind the batch in flight; arms the backstop
	if s := proposerState(c, primary); s.next != 2 || s.pending != 1 {
		t.Fatalf("after two requests: next %d, %d pending; want the first proposed and the second waiting", s.next, s.pending)
	}
	c.RunFor(60*time.Millisecond - c.Now().Sub(armed))
	for k := 2; k < clients; k++ {
		if _, err := c.Submit(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	c.RunFor(5 * time.Millisecond)
	closed := c.Now()
	if s := proposerState(c, primary); s.sized != 1 || s.next != 7 || s.pending != 2 {
		t.Fatalf("after the burst: %d size-triggered closes, next %d, %d pending; want one full batch of five and two waiting",
			s.sized, s.next, s.pending)
	}
	c.RunFor(interval - 10*time.Millisecond - c.Now().Sub(closed)) // past the first arrival's deadline
	if s := proposerState(c, primary); s.pending != 2 || s.other != 1 {
		t.Fatalf("%v after the size-triggered close: %d pending, %d idle or backstop closes; the backstop fired on the older deadline",
			c.Now().Sub(closed), s.pending, s.other)
	}
	c.RunFor(20 * time.Millisecond)
	if s := proposerState(c, primary); s.pending != 0 || s.other != 2 {
		t.Fatalf("an interval after the size-triggered close: %d pending, %d idle or backstop closes; want the backstop to have closed the two",
			s.pending, s.other)
	}
	// Nobody sends the primary the acks it missed while cut off, but its
	// watermark stands still behind subjects no ack credits, so it pulls
	// their commits from its shadow: all seven deliver everything.
	c.RunFor(time.Second)
	assertTotalOrder(t, c, c.Topo.N(), clients)
}

// TestUnpipelinedProposerKeepsIntervalPacing pins that the close rule is
// the pipelined path's alone: with a window of 0 or 1 (the paper preset)
// a stream of requests, one every 3 ms, is closed into batches at exactly
// the virtual times, and of exactly the sizes, that the interval-paced
// proposer closed them at before the rule — all on the timer.
func TestUnpipelinedProposerKeepsIntervalPacing(t *testing.T) {
	type batchClose struct {
		at      time.Duration // since the first submission, to the tick
		entries int
	}
	// What the interval-paced proposer closed before the close rule: the
	// first batch one interval after Init armed the timer, the others
	// later than one interval apart, as the modelled CPU of the requests
	// arriving meanwhile delays the timer's callback.
	want := []batchClose{{10 * time.Millisecond, 4}, {23850 * time.Microsecond, 4},
		{44250 * time.Microsecond, 5}, {66200 * time.Microsecond, 2}}
	for _, window := range []int{0, 1} {
		c := simCluster(t, func(o *harness.Options) { o.MaxInflightBatches = window })
		primary, _, _, err := c.Topo.Candidate(1)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 128)
		var got []batchClose
		before := proposerState(c, primary)
		for elapsed := time.Duration(0); elapsed < 80*time.Millisecond; elapsed += closeRuleTick {
			if elapsed%(3*time.Millisecond) == 0 && elapsed < 45*time.Millisecond {
				if _, err := c.Submit(0, payload); err != nil {
					t.Fatal(err)
				}
			}
			c.RunFor(closeRuleTick)
			after := proposerState(c, primary)
			if after.next > before.next {
				got = append(got, batchClose{elapsed + closeRuleTick, int(after.next - before.next)})
			}
			before = after
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("window %d: batches closed at (time, entries) %v, want %v", window, got, want)
		}
		if before.sized != 0 {
			t.Errorf("window %d: %d size-triggered closes", window, before.sized)
		}
	}
}

// ackSubjects records the subject length of every ack its process sends.
type ackSubjects struct{ lens []int }

func (a *ackSubjects) Outbound(_ runtime.Env, _ types.NodeID, m message.Message) []message.Message {
	if ack, ok := m.(*message.Ack); ok {
		a.lens = append(a.lens, len(ack.Subject))
	}
	return []message.Message{m}
}

// TestAcksCarrySubjectsOnlyWhenIntervalPaced pins the ack rule: a
// pipelined process (MaxInflightBatches >= 2) acks by digest alone, and an
// interval-paced one embeds the endorsed subject in every ack, as the
// paper's processes do.
func TestAcksCarrySubjectsOnlyWhenIntervalPaced(t *testing.T) {
	for _, window := range []int{0, 1, 2, 8} {
		topo, err := types.NewTopology(types.SC, 1)
		if err != nil {
			t.Fatal(err)
		}
		// An acker outside the first coordinator pair.
		pc, ps, _, _ := topo.Candidate(1)
		watched := types.Nil
		for _, id := range topo.AllProcesses() {
			if id != pc && id != ps {
				watched = id
				break
			}
		}
		tap := &ackSubjects{}
		s := newResumeSim(t, simOpts{proto: types.SC, f: 1, window: window, net: netsim.LANDefaults(), seed: 1,
			taps: map[types.NodeID]core.Tap{watched: tap}})
		s.submitEvery(10*time.Millisecond, 50*time.Millisecond)
		s.sched.RunFor(500 * time.Millisecond)
		if len(tap.lens) == 0 {
			t.Fatalf("window %d: process %v sent no acks", window, watched)
		}
		for _, n := range tap.lens {
			if embedded := n > 0; embedded != (window <= 1) {
				t.Fatalf("window %d: an ack carried a %d-byte subject", window, n)
			}
		}
	}
}
