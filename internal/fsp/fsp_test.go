package fsp

import (
	"strings"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// fakeEnv is a minimal single-threaded Env for driving a Pair directly.
type fakeEnv struct {
	id     types.NodeID
	ident  *crypto.Identity
	now    time.Time
	sent   []fakeSend
	timers []*fakeTimer
}

type fakeSend struct {
	to types.NodeID
	m  message.Message
}

type fakeTimer struct {
	at      time.Time
	fn      func()
	stopped bool
	fired   bool
}

func (t *fakeTimer) Stop() bool {
	if t.stopped || t.fired {
		return false
	}
	t.stopped = true
	return true
}

var _ runtime.Env = (*fakeEnv)(nil)

func (e *fakeEnv) ID() types.NodeID { return e.id }
func (e *fakeEnv) Now() time.Time   { return e.now }
func (e *fakeEnv) Send(to types.NodeID, m message.Message) {
	e.sent = append(e.sent, fakeSend{to: to, m: m})
}
func (e *fakeEnv) Multicast(tos []types.NodeID, m message.Message) {
	for _, to := range tos {
		e.Send(to, m)
	}
}
func (e *fakeEnv) SetTimer(d time.Duration, fn func()) runtime.Timer {
	t := &fakeTimer{at: e.now.Add(d), fn: fn}
	e.timers = append(e.timers, t)
	return t
}
func (e *fakeEnv) Charge(time.Duration)                           {}
func (e *fakeEnv) Digest(b []byte) []byte                         { return e.ident.Digest(b) }
func (e *fakeEnv) ScratchDigest(b []byte) []byte                  { return e.ident.Digest(b) }
func (e *fakeEnv) Sign(d []byte) (crypto.Signature, error)        { return e.ident.Sign(d) }
func (e *fakeEnv) ScratchSign(d []byte) (crypto.Signature, error) { return e.ident.Sign(d) }
func (e *fakeEnv) Verify(s types.NodeID, d []byte, sig crypto.Signature) error {
	return e.ident.Verify(s, d, sig)
}
func (e *fakeEnv) Logf(string, ...any) {}

// advance fires every timer due by d from now.
func (e *fakeEnv) advance(d time.Duration) {
	e.now = e.now.Add(d)
	for _, t := range e.timers {
		if !t.stopped && !t.fired && !t.at.After(e.now) {
			t.fired = true
			t.fn()
		}
	}
}

// pairFixture builds both members of pair rank 1 ({p1=0, p'1=5}) with
// HMAC identities and cross-supplied pre-signatures.
type pairFixture struct {
	envP, envS   *fakeEnv
	pairP, pairS *Pair
	downs        []string
	broadcasts   int
}

func newFixture(t *testing.T, delta time.Duration) *pairFixture {
	t.Helper()
	ids := []types.NodeID{0, 1, 2, 3, 4, 5, 6}
	idents, _, err := crypto.NewDealer(crypto.NewHMACSuite()).Issue(ids)
	if err != nil {
		t.Fatal(err)
	}
	fx := &pairFixture{
		envP: &fakeEnv{id: 0, ident: idents[0]},
		envS: &fakeEnv{id: 5, ident: idents[5]},
	}
	preP, err := PresignFor(idents[0], 1, 0, 0) // p's signature, held by p'
	if err != nil {
		t.Fatal(err)
	}
	preS, err := PresignFor(idents[5], 1, 0, 5) // p''s signature, held by p
	if err != nil {
		t.Fatal(err)
	}
	mk := func(self, cp types.NodeID, pre crypto.Signature) *Pair {
		return New(Config{
			Self: self, Counterpart: cp, Rank: 1, Delta: delta,
			PresignedFailSig: pre,
			MirrorTraffic:    true,
			Broadcast: func(env runtime.Env, m message.Message) {
				fx.broadcasts++
				env.Multicast(ids, m)
			},
			OnDown: func(_ runtime.Env, _ *message.FailSignal, reason string) {
				fx.downs = append(fx.downs, reason)
			},
		})
	}
	fx.pairP = mk(0, 5, preS)
	fx.pairS = mk(5, 0, preP)
	return fx
}

func TestFailEmitsVerifiableFailSignal(t *testing.T) {
	fx := newFixture(t, 10*time.Millisecond)
	fs := fx.pairP.Fail(fx.envP, "value-domain: conflicting order")
	if fs == nil {
		t.Fatal("Fail returned nil")
	}
	if fs.First != 5 || fs.Second != 0 || fs.Pair != 1 {
		t.Errorf("fail-signal signatories = %v/%v pair %d", fs.First, fs.Second, fs.Pair)
	}
	// SC2: the fail-signal verifies as doubly-signed by the pair.
	if err := fs.Verify(fx.envS, 0, 5); err != nil {
		t.Errorf("fail-signal does not verify: %v", err)
	}
	if fx.pairP.Status() != Down {
		t.Errorf("status = %v, want down", fx.pairP.Status())
	}
	if fx.broadcasts != 1 {
		t.Errorf("broadcasts = %d, want 1", fx.broadcasts)
	}
	if len(fx.downs) != 1 || !strings.Contains(fx.downs[0], "value-domain") {
		t.Errorf("downs = %v", fx.downs)
	}
	// Idempotent: a second detection does not re-broadcast.
	fs2 := fx.pairP.Fail(fx.envP, "again")
	if fs2 != fs || fx.broadcasts != 1 {
		t.Error("Fail not idempotent")
	}
}

func TestExpectationTimeout(t *testing.T) {
	fx := newFixture(t, 10*time.Millisecond)
	fx.pairS.Expect(fx.envS, OrderKey(message.ReqID{Client: types.ClientID(0), ClientSeq: 1}), 5*time.Millisecond)
	fx.envS.advance(14 * time.Millisecond) // < 5+10
	if !fx.pairS.Active() {
		t.Fatal("expectation fired early")
	}
	fx.envS.advance(2 * time.Millisecond) // total 16 > 15
	if fx.pairS.Active() {
		t.Fatal("expectation did not fire")
	}
	if len(fx.downs) != 1 || !strings.Contains(fx.downs[0], "time-domain") {
		t.Errorf("downs = %v", fx.downs)
	}
}

// TestExpectationReasonNamesWhatWasMissed holds the fail-signal reason to
// the words an operator reads: keys are typed values on the hot path and
// are only rendered here, when an expectation fails.
func TestExpectationReasonNamesWhatWasMissed(t *testing.T) {
	for _, c := range []struct {
		key  Key
		want string
	}{
		{OrderKey(message.ReqID{Client: types.ClientID(0), ClientSeq: 12}), "time-domain: order decision for client0#12"},
		{EndorseKey(7), "time-domain: endorsement of batch 7"},
		{AckKey(3, 9), "time-domain: counterpart ack for seq 9"},
		{StartKey(), "time-domain: endorsement of Start"},
	} {
		fx := newFixture(t, 10*time.Millisecond)
		fx.pairS.Expect(fx.envS, c.key, 0)
		fx.envS.advance(11 * time.Millisecond)
		if len(fx.downs) != 1 || fx.downs[0] != c.want {
			t.Errorf("downs = %q, want [%q]", fx.downs, c.want)
		}
	}
}

func TestExpectationMet(t *testing.T) {
	fx := newFixture(t, 10*time.Millisecond)
	k := EndorseKey(1)
	fx.pairS.Expect(fx.envS, k, 0)
	fx.pairS.Met(k)
	fx.envS.advance(time.Hour)
	if !fx.pairS.Active() {
		t.Error("met expectation still fired")
	}
	// Met on an unknown key is harmless.
	fx.pairS.Met(EndorseKey(2))
	// Re-registering after Met arms a fresh expectation.
	fx.pairS.Expect(fx.envS, k, 0)
	fx.envS.advance(time.Hour)
	if fx.pairS.Active() {
		t.Error("re-registered expectation did not fire")
	}
}

func TestDuplicateExpectationKeepsFirstDeadline(t *testing.T) {
	fx := newFixture(t, 10*time.Millisecond)
	fx.pairS.Expect(fx.envS, StartKey(), 0)
	fx.pairS.Expect(fx.envS, StartKey(), time.Hour) // ignored
	fx.envS.advance(11 * time.Millisecond)
	if fx.pairS.Active() {
		t.Error("first deadline did not fire")
	}
}

// pendingTimers counts the env timers that are neither stopped nor fired.
func (e *fakeEnv) pendingTimers() int {
	n := 0
	for _, t := range e.timers {
		if !t.stopped && !t.fired {
			n++
		}
	}
	return n
}

// TestExpectationsShareOneTimer pins the pair's deadline list: however
// many outputs are awaited, one env timer is pending, armed for the
// earliest; meeting outputs sets and stops no timer; and when the timer
// finds its expectation met it moves to the earliest one still live.
func TestExpectationsShareOneTimer(t *testing.T) {
	fx := newFixture(t, 10*time.Millisecond)
	env := fx.envS
	for seq := types.Seq(1); seq <= 5; seq++ {
		fx.pairS.Expect(env, EndorseKey(seq), 0)
		env.advance(time.Millisecond)
	}
	if got := env.pendingTimers(); got != 1 || len(env.timers) != 1 {
		t.Fatalf("%d timers pending of %d set for 5 expectations, want 1 of 1", got, len(env.timers))
	}
	for seq := types.Seq(1); seq <= 4; seq++ {
		if deadline, awaited := fx.pairS.Met(EndorseKey(seq)); !awaited || !deadline.Equal(time.Time{}.Add(time.Duration(seq-1)*time.Millisecond+10*time.Millisecond)) {
			t.Fatalf("Met(%d) = %v, %v", seq, deadline, awaited)
		}
	}
	if len(env.timers) != 1 {
		t.Fatalf("Met set or replaced a timer: %d timers", len(env.timers))
	}
	// now = 5ms. The timer fires at 10ms for the met batch 1 and re-arms
	// for batch 5, due at 14ms.
	env.advance(5 * time.Millisecond)
	if !fx.pairS.Active() || env.pendingTimers() != 1 {
		t.Fatalf("at batch 1's deadline: active=%v, %d timers pending; want the pair up and re-armed", fx.pairS.Active(), env.pendingTimers())
	}
	env.advance(3 * time.Millisecond) // 13ms
	if !fx.pairS.Active() {
		t.Fatal("batch 5's expectation fired early")
	}
	env.advance(time.Millisecond) // 14ms
	if fx.pairS.Active() || len(fx.downs) != 1 || fx.downs[0] != "time-domain: endorsement of batch 5" {
		t.Fatalf("at batch 5's deadline: active=%v downs=%q", fx.pairS.Active(), fx.downs)
	}
	if env.pendingTimers() != 0 {
		t.Error("a down pair left its timer pending")
	}
}

// TestEarlierDeadlineRearms covers the one case where an Expect moves the
// timer: a later-registered expectation with a shorter offset is due
// before the one the timer is armed for.
func TestEarlierDeadlineRearms(t *testing.T) {
	fx := newFixture(t, 10*time.Millisecond)
	id := message.ReqID{Client: types.ClientID(0), ClientSeq: 1}
	fx.pairS.Expect(fx.envS, OrderKey(id), 20*time.Millisecond) // due at 30ms
	fx.pairS.Expect(fx.envS, EndorseKey(3), 0)                  // due at 10ms
	if got := fx.envS.pendingTimers(); got != 1 {
		t.Fatalf("%d timers pending, want 1", got)
	}
	fx.envS.advance(10 * time.Millisecond)
	if fx.pairS.Active() || len(fx.downs) != 1 || fx.downs[0] != "time-domain: endorsement of batch 3" {
		t.Fatalf("active=%v downs=%q, want the 10ms expectation to fail first", fx.pairS.Active(), fx.downs)
	}
}

// TestEqualDeadlinesFailInExpectOrder: of expectations that run out
// together, the one registered first is the one the fail-signal names (as
// when each had a timer of its own and timers fired in SetTimer order).
func TestEqualDeadlinesFailInExpectOrder(t *testing.T) {
	fx := newFixture(t, 10*time.Millisecond)
	for seq := uint64(7); seq <= 9; seq++ {
		fx.pairS.Expect(fx.envS, OrderKey(message.ReqID{Client: types.ClientID(2), ClientSeq: seq}), 0)
	}
	fx.envS.advance(10 * time.Millisecond)
	if len(fx.downs) != 1 || fx.downs[0] != "time-domain: order decision for client2#7" {
		t.Errorf("downs = %q", fx.downs)
	}
}

// TestReExpectedKeyKeepsItsNewDeadline: a key met and awaited again has a
// stale entry under its old deadline; that entry must neither fail the
// pair nor discharge the new expectation.
func TestReExpectedKeyKeepsItsNewDeadline(t *testing.T) {
	fx := newFixture(t, 10*time.Millisecond)
	k := AckKey(1, 4)
	fx.pairS.Expect(fx.envS, EndorseKey(1), 0) // holds the head, so k's first entry stays queued
	fx.pairS.Expect(fx.envS, k, 0)             // due at 10ms
	fx.pairS.Met(k)
	fx.envS.advance(5 * time.Millisecond)
	fx.pairS.Expect(fx.envS, k, 0) // due at 15ms
	fx.pairS.Met(EndorseKey(1))
	fx.envS.advance(5 * time.Millisecond) // 10ms: only stale entries are due
	if !fx.pairS.Active() {
		t.Fatal("the met expectation's stale deadline failed the pair")
	}
	fx.envS.advance(5 * time.Millisecond) // 15ms
	if fx.pairS.Active() {
		t.Fatal("the re-registered expectation did not fire at its own deadline")
	}
}

// TestExpectMetAllocFree is the expectation floor: awaiting an output and
// seeing it met, over and over as a shadow does per request, costs no
// heap object — no timer, no closure, and the deadline list reuses its
// front.
func TestExpectMetAllocFree(t *testing.T) {
	fx := newFixture(t, time.Second)
	seq := uint64(0)
	// Sixteen in flight, met in order, as under a closed loop.
	for ; seq < 16; seq++ {
		fx.pairS.Expect(fx.envS, OrderKey(message.ReqID{ClientSeq: seq}), time.Millisecond)
	}
	round := func() {
		fx.envS.now = fx.envS.now.Add(time.Microsecond)
		fx.pairS.Expect(fx.envS, OrderKey(message.ReqID{ClientSeq: seq}), time.Millisecond)
		if _, awaited := fx.pairS.Met(OrderKey(message.ReqID{ClientSeq: seq - 16})); !awaited {
			t.Fatal("the oldest expectation was not live")
		}
		seq++
	}
	for i := 0; i < 1000; i++ {
		round() // let the map and the list reach their working size
	}
	if got := testing.AllocsPerRun(1000, round); got != 0 {
		t.Errorf("Expect + Met = %v allocs, want 0", got)
	}
	if n := len(fx.envS.timers); n != 1 {
		t.Errorf("%d timers set for %d expectations, want 1", n, seq)
	}
}

func TestHandleCounterpartFailSignal(t *testing.T) {
	fx := newFixture(t, 10*time.Millisecond)
	fs := fx.pairP.Fail(fx.envP, "detected")
	// p' receives p's fail-signal: it must emit its own and go down.
	fx.pairS.HandleFailSignal(fx.envS, fs)
	if fx.pairS.Active() {
		t.Fatal("counterpart fail-signal did not stop collaboration")
	}
	if fx.broadcasts != 2 {
		t.Errorf("broadcasts = %d, want 2 (one per member)", fx.broadcasts)
	}
	own := fx.pairS.Emitted()
	if own == nil || own.Second != 5 || own.First != 0 {
		t.Errorf("p' emitted %+v", own)
	}
	if err := own.Verify(fx.envP, 0, 5); err != nil {
		t.Errorf("p''s echo fail-signal does not verify: %v", err)
	}
	// Receiving our own emission back is a no-op.
	before := fx.broadcasts
	fx.pairP.HandleFailSignal(fx.envP, fs)
	if fx.broadcasts != before {
		t.Error("own fail-signal echo caused re-broadcast")
	}
}

func TestHandleFailSignalWrongPairOrEpoch(t *testing.T) {
	fx := newFixture(t, 10*time.Millisecond)
	fs := fx.pairP.Fail(fx.envP, "x")
	other := *fs
	other.Pair = 2
	fx.pairS.HandleFailSignal(fx.envS, &other)
	if !fx.pairS.Active() {
		t.Error("fail-signal for another pair affected this pair")
	}
	stale := *fs
	stale.Epoch = 7
	fx.pairS.HandleFailSignal(fx.envS, &stale)
	if !fx.pairS.Active() {
		t.Error("fail-signal for wrong epoch affected this pair")
	}
}

func TestFailSignalCannotBeForgedByOutsider(t *testing.T) {
	// Use real RSA so HMAC's shared-secret weakness does not mask forgery.
	ids := []types.NodeID{0, 1, 5}
	suite, err := crypto.NewRSASuite(1024)
	if err != nil {
		t.Fatal(err)
	}
	idents, _, err := crypto.NewDealer(suite, crypto.WithKeyCache(crypto.SharedKeyCache())).Issue(ids)
	if err != nil {
		t.Fatal(err)
	}
	outsider := &fakeEnv{id: 1, ident: idents[1]}
	// The outsider fabricates a fail-signal for pair 1 without p's
	// pre-signature: it can only sign as itself, so verification fails.
	body := message.FailSignalBody(1, 0, 0)
	sig1, err := message.SignSingle(idents[1], body) // forged "p" signature
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := message.SignSecond(idents[1], body, sig1)
	if err != nil {
		t.Fatal(err)
	}
	forged := &message.FailSignal{Pair: 1, Epoch: 0, First: 0, Second: 5, Sig1: sig1, Sig2: sig2}
	if err := forged.Verify(outsider, 0, 5); err == nil {
		t.Error("forged fail-signal verified (SC2 violated)")
	}
}

func TestRecover(t *testing.T) {
	fx := newFixture(t, 10*time.Millisecond)
	fx.pairP.Fail(fx.envP, "false suspicion")
	if fx.pairP.Active() {
		t.Fatal("not down")
	}
	// Fresh epoch-1 pre-signature from the counterpart.
	pre, err := PresignFor(fx.envS.ident, 1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !fx.pairP.Recover(1, pre) {
		t.Fatal("Recover refused")
	}
	if !fx.pairP.Active() || fx.pairP.Epoch() != 1 {
		t.Errorf("after recover: status=%v epoch=%d", fx.pairP.Status(), fx.pairP.Epoch())
	}
	// The recovered pair can fail-signal again in the new epoch.
	fs := fx.pairP.Fail(fx.envP, "again")
	if fs == nil || fs.Epoch != 1 {
		t.Fatalf("epoch-1 fail-signal = %+v", fs)
	}
	if err := fs.Verify(fx.envS, 0, 5); err != nil {
		t.Errorf("epoch-1 fail-signal does not verify: %v", err)
	}
}

func TestNoRecoveryFromPermanentlyDown(t *testing.T) {
	fx := newFixture(t, 10*time.Millisecond)
	fx.pairP.Fail(fx.envP, "value-domain")
	fx.pairP.MarkPermanentlyDown()
	if fx.pairP.Recover(1, crypto.Signature{1}) {
		t.Error("recovered from permanently_down")
	}
	if fx.pairP.Status() != PermanentlyDown {
		t.Errorf("status = %v", fx.pairP.Status())
	}
}

func TestMirror(t *testing.T) {
	fx := newFixture(t, 10*time.Millisecond)
	fx.pairP.Mirror(fx.envP, message.MirrorRecv, 3, []byte{1, 2, 3})
	if len(fx.envP.sent) != 1 {
		t.Fatalf("sent %d messages, want 1", len(fx.envP.sent))
	}
	if fx.envP.sent[0].to != 5 {
		t.Errorf("mirror sent to %v, want counterpart 5", fx.envP.sent[0].to)
	}
	if fx.envP.sent[0].m.Type() != message.TMirror {
		t.Errorf("mirror type = %v", fx.envP.sent[0].m.Type())
	}
	// No mirroring once down.
	fx.pairP.Fail(fx.envP, "down")
	n := len(fx.envP.sent)
	fx.pairP.Mirror(fx.envP, message.MirrorRecv, 3, []byte{1})
	if len(fx.envP.sent) != n {
		t.Error("mirrored while down")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{Up: "up", Down: "down", PermanentlyDown: "permanently_down"} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

// TestKeysAllocFree pins the fault-free cost of pair monitoring: a paired
// process builds a key and calls Met per request and per batch entry,
// nearly always with nothing registered, and none of that may reach the
// heap (formatted string keys were a sixth of all allocations per commit).
func TestKeysAllocFree(t *testing.T) {
	fx := newFixture(t, 10*time.Millisecond)
	id := message.ReqID{Client: types.ClientID(1), ClientSeq: 42}
	if got := testing.AllocsPerRun(200, func() {
		fx.pairS.Met(OrderKey(id))
		fx.pairS.Met(EndorseKey(7))
		fx.pairS.Met(AckKey(3, 9))
		fx.pairS.Met(StartKey())
	}); got != 0 {
		t.Errorf("building the four keys and Met on each, none registered = %v allocs, want 0", got)
	}
}
