package runtime

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/des"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/types"
)

// zeroParams is a fabric model with no delays and no CPU costs, for tests
// that control costs explicitly.
var zeroParams = netsim.Params{}

func testTopo(t *testing.T) types.Topology {
	t.Helper()
	topo, err := types.NewTopology(types.SC, 2)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func identities(t *testing.T, suite crypto.Suite, n int) map[types.NodeID]*crypto.Identity {
	t.Helper()
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.NodeID(i)
	}
	idents, _, err := crypto.NewDealer(suite, crypto.WithKeyCache(crypto.SharedKeyCache())).Issue(ids)
	if err != nil {
		t.Fatal(err)
	}
	return idents
}

func ping(seq uint64) *message.Request {
	return &message.Request{Client: types.ClientID(0), ClientSeq: seq, Payload: []byte("ping")}
}

// recorder logs every receipt with its virtual/real timestamp.
type recorder struct {
	mu       sync.Mutex
	recvs    []recvRecord
	onRecv   func(env Env, from types.NodeID, m message.Message)
	initDone bool
}

type recvRecord struct {
	from types.NodeID
	seq  uint64
	at   time.Time
}

func (r *recorder) Init(env Env) { r.initDone = true }

func (r *recorder) Receive(env Env, from types.NodeID, m message.Message) {
	req, ok := m.(*message.Request)
	if !ok {
		return
	}
	r.mu.Lock()
	r.recvs = append(r.recvs, recvRecord{from: from, seq: req.ClientSeq, at: env.Now()})
	r.mu.Unlock()
	if r.onRecv != nil {
		r.onRecv(env, from, m)
	}
}

func (r *recorder) records() []recvRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]recvRecord, len(r.recvs))
	copy(out, r.recvs)
	return out
}

func newSim(t *testing.T, params netsim.Params, suite crypto.Suite, procs map[types.NodeID]Process) (*SimCluster, *des.Scheduler) {
	t.Helper()
	sched := des.New(des.Epoch)
	fabric := netsim.New(params, testTopo(t), 7)
	c := NewSimCluster(sched, fabric)
	idents := identities(t, suite, 8)
	for i := 0; i < 8; i++ {
		id := types.NodeID(i)
		p, ok := procs[id]
		if !ok {
			p = &recorder{}
		}
		if err := c.AddNode(id, idents[id], p); err != nil {
			t.Fatal(err)
		}
	}
	c.Start()
	return c, sched
}

func TestSimDeliveryWithNetworkDelay(t *testing.T) {
	params := netsim.Params{LAN: netsim.LinkParams{BaseDelay: 5 * time.Millisecond}}
	rec := &recorder{}
	sender := &recorder{onRecv: nil}
	c, sched := newSim(t, params, crypto.NewHMACSuite(), map[types.NodeID]Process{0: sender, 1: rec})
	if err := c.Inject(0, func(env Env) { env.Send(1, ping(1)) }); err != nil {
		t.Fatal(err)
	}
	sched.Drain(0)
	got := rec.records()
	if len(got) != 1 {
		t.Fatalf("receiver got %d messages, want 1", len(got))
	}
	elapsed := got[0].at.Sub(des.Epoch)
	if elapsed < 5*time.Millisecond {
		t.Errorf("message arrived after %v, want >= 5ms", elapsed)
	}
	if elapsed > 6*time.Millisecond {
		t.Errorf("message arrived after %v, want ~5ms", elapsed)
	}
}

func TestSimCPUQueueing(t *testing.T) {
	// Each receive charges 10ms; three messages arriving together must be
	// serviced serially: completion times spaced 10ms apart.
	rec := &recorder{}
	rec.onRecv = func(env Env, _ types.NodeID, _ message.Message) {
		env.Charge(10 * time.Millisecond)
		rec.mu.Lock()
		rec.recvs[len(rec.recvs)-1].at = env.Now() // completion time
		rec.mu.Unlock()
	}
	c, sched := newSim(t, zeroParams, crypto.NewHMACSuite(), map[types.NodeID]Process{1: rec})
	_ = c.Inject(0, func(env Env) {
		env.Send(1, ping(1))
		env.Send(1, ping(2))
		env.Send(1, ping(3))
	})
	sched.Drain(0)
	got := rec.records()
	if len(got) != 3 {
		t.Fatalf("got %d receives, want 3", len(got))
	}
	for i, want := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		if d := got[i].at.Sub(des.Epoch); d != want {
			t.Errorf("completion %d at %v, want %v", i, d, want)
		}
	}
}

func TestSimSendsDepartAtChargeTime(t *testing.T) {
	// Sender charges 7ms before sending: the receiver must not see the
	// message before that CPU time has elapsed.
	rec := &recorder{}
	c, sched := newSim(t, zeroParams, crypto.NewHMACSuite(), map[types.NodeID]Process{2: rec})
	_ = c.Inject(0, func(env Env) {
		env.Charge(7 * time.Millisecond)
		env.Send(2, ping(1))
	})
	sched.Drain(0)
	got := rec.records()
	if len(got) != 1 {
		t.Fatalf("got %d, want 1", len(got))
	}
	if d := got[0].at.Sub(des.Epoch); d != 7*time.Millisecond {
		t.Errorf("arrival at %v, want 7ms", d)
	}
}

func TestSimCryptoChargesCosts(t *testing.T) {
	suite, err := crypto.NewModelSuite(crypto.MD5RSA1024)
	if err != nil {
		t.Fatal(err)
	}
	costs := suite.Costs()
	var signT, verifyT time.Duration
	prober := &recorder{}
	prober.onRecv = func(env Env, _ types.NodeID, _ message.Message) {
		before := env.Now()
		digest := env.Digest([]byte("x"))
		sig, err := env.Sign(digest)
		if err != nil {
			t.Errorf("Sign: %v", err)
		}
		signT = env.Now().Sub(before)
		before = env.Now()
		if err := env.Verify(env.ID(), digest, sig); err != nil {
			t.Errorf("Verify: %v", err)
		}
		verifyT = env.Now().Sub(before)
	}
	c, sched := newSim(t, zeroParams, suite, map[types.NodeID]Process{3: prober})
	_ = c.Inject(0, func(env Env) { env.Send(3, ping(1)) })
	sched.Drain(0)
	if signT < costs.Sign {
		t.Errorf("sign charged %v, want >= %v", signT, costs.Sign)
	}
	if verifyT != costs.Verify {
		t.Errorf("verify charged %v, want %v", verifyT, costs.Verify)
	}
}

func TestSimTimer(t *testing.T) {
	var firedAt time.Time
	var canceled bool
	p := &recorder{}
	p.onRecv = func(env Env, _ types.NodeID, _ message.Message) {
		env.SetTimer(25*time.Millisecond, func() { firedAt = env.Now() })
		tm := env.SetTimer(5*time.Millisecond, func() { canceled = true })
		if !tm.Stop() {
			t.Error("Stop() = false for pending timer")
		}
	}
	c, sched := newSim(t, zeroParams, crypto.NewHMACSuite(), map[types.NodeID]Process{1: p})
	_ = c.Inject(0, func(env Env) { env.Send(1, ping(1)) })
	sched.Drain(0)
	if canceled {
		t.Error("stopped timer fired")
	}
	if d := firedAt.Sub(des.Epoch); d != 25*time.Millisecond {
		t.Errorf("timer fired at %v, want 25ms", d)
	}
}

func TestSimCrashStopsProcessing(t *testing.T) {
	rec := &recorder{}
	c, sched := newSim(t, zeroParams, crypto.NewHMACSuite(), map[types.NodeID]Process{1: rec})
	_ = c.Inject(0, func(env Env) { env.Send(1, ping(1)) })
	sched.Drain(0)
	c.Crash(1)
	_ = c.Inject(0, func(env Env) { env.Send(1, ping(2)) })
	sched.Drain(0)
	if got := rec.records(); len(got) != 1 {
		t.Errorf("crashed node processed %d messages, want 1", len(got))
	}
}

func TestSimMulticastIncludingSelf(t *testing.T) {
	recs := map[types.NodeID]*recorder{}
	procs := map[types.NodeID]Process{}
	for i := 0; i < 3; i++ {
		r := &recorder{}
		recs[types.NodeID(i)] = r
		procs[types.NodeID(i)] = r
	}
	c, sched := newSim(t, zeroParams, crypto.NewHMACSuite(), procs)
	_ = c.Inject(0, func(env Env) {
		env.Multicast([]types.NodeID{0, 1, 2}, ping(9))
	})
	sched.Drain(0)
	for id, r := range recs {
		if got := r.records(); len(got) != 1 || got[0].seq != 9 {
			t.Errorf("node %v got %v, want one ping(9)", id, got)
		}
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() []string {
		var trace []string
		procs := map[types.NodeID]Process{}
		for i := 0; i < 4; i++ {
			id := types.NodeID(i)
			r := &recorder{}
			r.onRecv = func(env Env, from types.NodeID, m message.Message) {
				req := m.(*message.Request)
				trace = append(trace, fmt.Sprintf("%v<-%v#%d@%v", env.ID(), from, req.ClientSeq, env.Now().Sub(des.Epoch)))
				if req.ClientSeq < 20 {
					env.Multicast([]types.NodeID{0, 1, 2, 3}, ping(req.ClientSeq+1))
				}
			}
			procs[id] = r
		}
		params := netsim.LANDefaults()
		sched := des.New(des.Epoch)
		topo, _ := types.NewTopology(types.SC, 2)
		fabric := netsim.New(params, topo, 99)
		c := NewSimCluster(sched, fabric)
		idents := identities(t, crypto.NewHMACSuite(), 8)
		for i := 0; i < 4; i++ {
			if err := c.AddNode(types.NodeID(i), idents[types.NodeID(i)], procs[types.NodeID(i)]); err != nil {
				t.Fatal(err)
			}
		}
		c.Start()
		_ = c.Inject(0, func(env Env) { env.Send(1, ping(1)) })
		sched.Drain(200000)
		return trace
	}
	t1, t2 := run(), run()
	if len(t1) == 0 || len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, t1[i], t2[i])
		}
	}
}

func TestSimRejectsDuplicateAndLateNodes(t *testing.T) {
	sched := des.New(des.Epoch)
	c := NewSimCluster(sched, netsim.New(zeroParams, testTopo(t), 1))
	idents := identities(t, crypto.NewHMACSuite(), 2)
	if err := c.AddNode(0, idents[0], &recorder{}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode(0, idents[0], &recorder{}); err == nil {
		t.Error("duplicate AddNode: want error")
	}
	c.Start()
	if err := c.AddNode(1, idents[1], &recorder{}); err == nil {
		t.Error("AddNode after Start: want error")
	}
	if err := c.Inject(42, func(Env) {}); err == nil {
		t.Error("Inject unknown node: want error")
	}
}

// --- live runtime ---

func newLive(t *testing.T, procs map[types.NodeID]Process) *LiveCluster {
	t.Helper()
	c := NewLiveCluster(nil)
	idents := identities(t, crypto.NewHMACSuite(), 8)
	for i := 0; i < 8; i++ {
		id := types.NodeID(i)
		p, ok := procs[id]
		if !ok {
			p = &recorder{}
		}
		if err := c.AddNode(id, idents[id], p); err != nil {
			t.Fatal(err)
		}
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestLiveDelivery(t *testing.T) {
	rec := &recorder{}
	c := newLive(t, map[types.NodeID]Process{1: rec})
	if err := c.Inject(0, func(env Env) { env.Send(1, ping(1)) }); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(rec.records()) == 1 }, "delivery")
	if got := rec.records(); got[0].from != 0 || got[0].seq != 1 {
		t.Errorf("got %+v", got[0])
	}
}

func TestLivePingPong(t *testing.T) {
	const rounds = 50
	done := make(chan struct{})
	a := &recorder{}
	a.onRecv = func(env Env, from types.NodeID, m message.Message) {
		req := m.(*message.Request)
		if req.ClientSeq >= rounds {
			close(done)
			return
		}
		env.Send(from, ping(req.ClientSeq+1))
	}
	b := &recorder{}
	b.onRecv = func(env Env, from types.NodeID, m message.Message) {
		req := m.(*message.Request)
		env.Send(from, ping(req.ClientSeq+1))
	}
	c := newLive(t, map[types.NodeID]Process{0: a, 1: b})
	_ = c.Inject(1, func(env Env) { env.Send(0, ping(0)) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ping-pong did not complete")
	}
}

func TestLiveTimerFiresAndStops(t *testing.T) {
	fired := make(chan struct{})
	var stopped Timer
	var stoppedFired sync.Mutex
	sawStopped := false
	p := &recorder{}
	p.onRecv = func(env Env, _ types.NodeID, _ message.Message) {
		env.SetTimer(10*time.Millisecond, func() { close(fired) })
		stopped = env.SetTimer(time.Millisecond, func() {
			stoppedFired.Lock()
			sawStopped = true
			stoppedFired.Unlock()
		})
		stopped.Stop()
	}
	c := newLive(t, map[types.NodeID]Process{1: p})
	_ = c.Inject(0, func(env Env) { env.Send(1, ping(1)) })
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("timer did not fire")
	}
	time.Sleep(20 * time.Millisecond)
	stoppedFired.Lock()
	defer stoppedFired.Unlock()
	if sawStopped {
		t.Error("stopped timer fired")
	}
}

func TestLiveCrash(t *testing.T) {
	rec := &recorder{}
	c := newLive(t, map[types.NodeID]Process{1: rec})
	_ = c.Inject(0, func(env Env) { env.Send(1, ping(1)) })
	waitFor(t, func() bool { return len(rec.records()) == 1 }, "first delivery")
	c.Crash(1)
	_ = c.Inject(0, func(env Env) { env.Send(1, ping(2)) })
	time.Sleep(30 * time.Millisecond)
	if got := rec.records(); len(got) != 1 {
		t.Errorf("crashed node processed %d messages", len(got))
	}
}

func TestLiveConcurrentSenders(t *testing.T) {
	const senders, each = 6, 40
	rec := &recorder{}
	c := newLive(t, map[types.NodeID]Process{7: rec})
	for s := 0; s < senders; s++ {
		s := s
		go func() {
			for i := 0; i < each; i++ {
				_ = c.Inject(types.NodeID(s), func(env Env) {
					env.Send(7, ping(uint64(i)))
				})
			}
		}()
	}
	waitFor(t, func() bool { return len(rec.records()) == senders*each }, "all deliveries")
}

func TestLiveArtificialDelay(t *testing.T) {
	params := netsim.Params{LAN: netsim.LinkParams{BaseDelay: 30 * time.Millisecond}}
	fabric := netsim.New(params, testTopo(t), 5)
	c := NewLiveCluster(fabric)
	idents := identities(t, crypto.NewHMACSuite(), 2)
	rec := &recorder{}
	if err := c.AddNode(0, idents[0], &recorder{}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode(1, idents[1], rec); err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	start := time.Now()
	_ = c.Inject(0, func(env Env) { env.Send(1, ping(1)) })
	waitFor(t, func() bool { return len(rec.records()) == 1 }, "delayed delivery")
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("delivery took %v, want >= ~30ms", elapsed)
	}
}

// TestBuiltMessagesChargeWhatHandSignedOnesDid holds the simulator's cost
// of signing still: message.Sign, Countersign and Endorse — one layout, a
// scratch digest and a scratch signature — charge a node exactly what
// SignSingle and SignSecond over SignedBody charged it, so the figures do
// not move; the node's wire arenas charge nothing. What the same calls
// cost the heap through a live engine is TestEngineSignAllocationFloors.
func TestBuiltMessagesChargeWhatHandSignedOnesDid(t *testing.T) {
	suite, err := crypto.NewModelSuite(crypto.MD5RSA1024)
	if err != nil {
		t.Fatal(err)
	}
	c, sched := newSim(t, netsim.Params{}, suite, nil)
	batch := func() *message.OrderBatch {
		return &message.OrderBatch{Coord: 1, View: 1, FirstSeq: 1, Primary: 0, Shadow: 1,
			Entries: []message.OrderEntry{{Req: message.ReqID{Client: types.ClientID(0), ClientSeq: 1}, ReqDigest: make([]byte, 16)}}}
	}
	ran := false
	err = c.Inject(0, func(env Env) {
		n := env.(*simNode)
		cost := func(fn func()) time.Duration {
			before := n.charged
			fn()
			return n.charged - before
		}
		byHand, built := batch(), batch()
		hand1 := cost(func() { byHand.Sig1, err = message.SignSingle(env, byHand.SignedBody()) })
		built1 := cost(func() { err = message.Sign(env, built, &built.Sig1) })
		if hand1 != built1 || hand1 <= 0 || err != nil {
			t.Errorf("Sign charged %v, SignSingle over SignedBody %v (err %v)", built1, hand1, err)
		}
		if !bytes.Equal(byHand.Sig1, built.Sig1) {
			t.Error("Sign and SignSingle disagree under the model suite")
		}
		hand2 := cost(func() { byHand.Sig2, err = message.SignSecond(env, byHand.SignedBody(), byHand.Sig1) })
		built2 := cost(func() { err = built.EndorseInto(env, new(message.OrderBatch)) })
		if hand2 != built2 || hand2 <= hand1 || err != nil {
			t.Errorf("Endorse charged %v, SignSecond %v (err %v); want equal, and above a first signature's %v", built2, hand2, err, hand1)
		}
		ran = true
	})
	if err != nil {
		t.Fatal(err)
	}
	sched.Drain(0)
	if !ran {
		t.Fatal("the injected event did not run")
	}
}
