package fsp

import (
	"fmt"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// Status is the operative status of the pair as seen by one member.
// The SC protocol uses Up and Down only; the SCR extension adds recovery
// (Down pairs may come back Up) and PermanentlyDown for value-domain
// failures (Section 4.4).
type Status int

// Pair statuses.
const (
	Up Status = iota
	Down
	PermanentlyDown
)

// String returns the paper's name for the status.
func (s Status) String() string {
	switch s {
	case Up:
		return "up"
	case Down:
		return "down"
	case PermanentlyDown:
		return "permanently_down"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Config configures one member's half of a pair.
type Config struct {
	// Self and Counterpart are the pair members ({pi, p'i}).
	Self, Counterpart types.NodeID
	// Rank is the pair's coordinator-candidate rank (pair index i).
	Rank types.Rank
	// Delta is the differential delay estimate used for time-domain
	// checks: an expected counterpart output missing Delta after it became
	// due is a time-domain failure (accurate under assumption 3(a)(i),
	// eventually accurate under 3(b)(i)).
	Delta time.Duration
	// PresignedFailSig is the counterpart's signature over
	// message.FailSignalBody(Rank, 0, Counterpart), supplied by the
	// trusted dealer at initialisation.
	PresignedFailSig crypto.Signature
	// Broadcast multicasts a message to every order process; supplied by
	// the protocol embedding the pair.
	Broadcast func(env runtime.Env, m message.Message)
	// OnDown is invoked (once per transition) when this member stops
	// collaborating, either because it emitted a fail-signal or because it
	// received its counterpart's.
	OnDown func(env runtime.Env, fs *message.FailSignal, reason string)
	// MirrorTraffic controls whether Mirror copies are actually sent on
	// the pair link (on by default in the protocols; an ablation can turn
	// it off).
	MirrorTraffic bool
}

// Pair is one member's view of the signal-on-crash pair. It is driven
// entirely from its process's event loop and needs no locking.
type Pair struct {
	cfg    Config
	status Status
	epoch  uint64

	// presigned is the counterpart's pre-signature for the current epoch.
	presigned crypto.Signature
	// emitted is the fail-signal this member emitted for the current
	// epoch, if any.
	emitted *message.FailSignal

	// expectations holds each awaited output's deadline; due lists the
	// same (key, deadline) pairs in deadline order — equal deadlines in
	// Expect order — from head on, and timer, the pair's one timer, is
	// armed for armedFor, no later than the earliest live deadline. An
	// expectation costs no timer and no closure of its own, and Met only
	// forgets the key: its due entry has gone stale (the key is absent or
	// carries another deadline) and is skipped when it reaches the head.
	expectations map[Key]time.Time
	due          []expiry
	head         int
	timer        runtime.Timer
	armedFor     time.Time
}

type expiry struct {
	key Key
	at  time.Time
}

// Key identifies one time-domain expectation: which counterpart output is
// awaited. It is a comparable value built without allocating — a paired
// process builds and looks one up per request and per batch entry, almost
// always with no expectation live — and is put into words only by String,
// when an expectation fails.
type Key struct {
	kind keyKind
	a, b uint64
}

type keyKind uint8

const (
	keyOrder   keyKind = iota + 1 // a = client, b = client sequence
	keyEndorse                    // a = the proposal's first sequence number
	keyAck                        // a = view, b = the subject's first sequence number
	keyStart
)

// OrderKey awaits the primary's order decision for request id (the
// shadow's check on every request it has seen).
func OrderKey(id message.ReqID) Key {
	return Key{kind: keyOrder, a: uint64(id.Client), b: id.ClientSeq}
}

// EndorseKey awaits the shadow's endorsement of the proposal starting at
// first.
func EndorseKey(first types.Seq) Key { return Key{kind: keyEndorse, a: uint64(first)} }

// AckKey awaits the counterpart's ack for the subject at (view, first);
// non-coordinator pair members check each other with it.
func AckKey(view types.View, first types.Seq) Key {
	return Key{kind: keyAck, a: uint64(view), b: uint64(first)}
}

// StartKey awaits the shadow's endorsement of the Start this member
// proposed.
func StartKey() Key { return Key{kind: keyStart} }

// String names the awaited output, as a fail-signal's reason reports it.
func (k Key) String() string {
	switch k.kind {
	case keyOrder:
		return fmt.Sprintf("order decision for %v", message.ReqID{Client: types.NodeID(k.a), ClientSeq: k.b})
	case keyEndorse:
		return fmt.Sprintf("endorsement of batch %d", k.a)
	case keyAck:
		return fmt.Sprintf("counterpart ack for seq %d", k.b)
	case keyStart:
		return "endorsement of Start"
	default:
		return fmt.Sprintf("Key(%d, %d, %d)", k.kind, k.a, k.b)
	}
}

// New returns a pair member in the Up state.
func New(cfg Config) *Pair {
	return &Pair{
		cfg:          cfg,
		status:       Up,
		presigned:    cfg.PresignedFailSig,
		expectations: make(map[Key]time.Time),
	}
}

// Status returns the member's current view of the pair status.
func (p *Pair) Status() Status { return p.status }

// Active reports whether the pair collaboration is operating (status up).
func (p *Pair) Active() bool { return p.status == Up }

// Epoch returns the pair's fail-signal incarnation counter (0 initially;
// incremented on each SCR recovery).
func (p *Pair) Epoch() uint64 { return p.epoch }

// Rank returns the pair's candidate rank.
func (p *Pair) Rank() types.Rank { return p.cfg.Rank }

// Counterpart returns the other member.
func (p *Pair) Counterpart() types.NodeID { return p.cfg.Counterpart }

// Emitted returns the fail-signal this member emitted in the current
// epoch, or nil.
func (p *Pair) Emitted() *message.FailSignal { return p.emitted }

// Mirror forwards a copy of an asynchronous-network message to the
// counterpart (Section 3.1 normal-form collaboration (i)).
func (p *Pair) Mirror(env runtime.Env, dir message.MirrorDir, peer types.NodeID, raw []byte) {
	if !p.Active() || !p.cfg.MirrorTraffic {
		return
	}
	env.Send(p.cfg.Counterpart, &message.Mirror{Dir: dir, Peer: peer, Inner: raw})
}

// Expect registers a time-domain expectation: unless Met(key) is called
// within extra+Delta, the member declares a time-domain failure of its
// counterpart and fail-signals. Re-registering a live key is a no-op.
func (p *Pair) Expect(env runtime.Env, key Key, extra time.Duration) {
	if !p.Active() {
		return
	}
	if _, live := p.expectations[key]; live {
		return
	}
	d := extra + p.cfg.Delta
	at := env.Now().Add(d)
	p.expectations[key] = at
	// A member's expectations nearly all share one offset (a shadow awaits
	// order decisions, a primary endorsements, the others acks), so
	// deadlines arrive in order and the insertion ends where it starts.
	i := len(p.due)
	p.due = append(p.due, expiry{})
	for ; i > p.head && p.due[i-1].at.After(at); i-- {
		p.due[i] = p.due[i-1]
	}
	p.due[i] = expiry{key: key, at: at}
	if p.timer != nil {
		if !at.Before(p.armedFor) {
			return
		}
		p.timer.Stop()
	}
	p.arm(env, at, d)
}

// arm points the pair's timer at deadline at, d from now.
func (p *Pair) arm(env runtime.Env, at time.Time, d time.Duration) {
	p.armedFor = at
	p.timer = env.SetTimer(d, func() { p.expire(env) })
}

// Met discharges a time-domain expectation. It reports the deadline the
// output had to meet and whether it was awaited at all, so the caller can
// tell by what margin the counterpart was timely.
func (p *Pair) Met(key Key) (deadline time.Time, awaited bool) {
	deadline, awaited = p.expectations[key]
	if awaited {
		delete(p.expectations, key)
		p.skipStale()
	}
	return deadline, awaited
}

// skipStale moves head past entries whose expectation was met, so that
// outputs met in the order they were awaited leave nothing behind, and
// reclaims the consumed front of due.
func (p *Pair) skipStale() {
	for p.head < len(p.due) {
		e := p.due[p.head]
		if at, live := p.expectations[e.key]; live && at.Equal(e.at) {
			break
		}
		p.head++
	}
	switch {
	case p.head == len(p.due):
		p.due, p.head = p.due[:0], 0
	case p.head >= 64 && 2*p.head >= len(p.due):
		p.due, p.head = p.due[:copy(p.due, p.due[p.head:])], 0
	}
}

// expire is the pair timer's callback: the earliest live expectation has
// either run out — a time-domain failure — or the timer was armed for one
// met since, and moves on to the earliest still awaited.
func (p *Pair) expire(env runtime.Env) {
	p.timer = nil
	if !p.Active() {
		return
	}
	p.skipStale()
	if p.head == len(p.due) {
		return
	}
	next := p.due[p.head]
	if now := env.Now(); next.at.After(now) {
		p.arm(env, next.at, next.at.Sub(now))
		return
	}
	p.head++
	delete(p.expectations, next.key)
	p.Fail(env, fmt.Sprintf("time-domain: %v", next.key))
}

// Fail records a detected counterpart failure: the member double-signs the
// pre-supplied fail-signal and broadcasts it (Section 3.2), then stops
// collaborating. It is idempotent per epoch.
func (p *Pair) Fail(env runtime.Env, reason string) *message.FailSignal {
	if !p.Active() {
		return p.emitted
	}
	fs := &message.FailSignal{
		Pair:   p.cfg.Rank,
		Epoch:  p.epoch,
		First:  p.cfg.Counterpart,
		Second: p.cfg.Self,
		Sig1:   p.presigned,
	}
	if err := message.Countersign(env, fs, fs.Sig1, &fs.Sig2); err != nil {
		env.Logf("fsp: signing fail-signal: %v", err)
		return nil
	}
	p.emitted = fs
	p.transitionDown(env, fs, reason)
	if p.cfg.Broadcast != nil {
		p.cfg.Broadcast(env, fs)
	}
	return fs
}

// HandleFailSignal processes an authentic doubly-signed fail-signal for
// this pair arriving from anywhere (the counterpart's own emission or an
// echo relayed by a third process). Per Section 3.2, a member that
// receives its counterpart's fail-signal also double-signs its own and
// broadcasts it, then stops collaborating.
func (p *Pair) HandleFailSignal(env runtime.Env, fs *message.FailSignal) {
	if fs.Pair != p.cfg.Rank || fs.Epoch != p.epoch {
		return
	}
	if !p.Active() {
		return
	}
	if fs.Second == p.cfg.Self {
		// Our own emission echoed back.
		return
	}
	// Counterpart (or a relayer) delivered the counterpart's fail-signal:
	// emit ours too, then stop.
	p.Fail(env, fmt.Sprintf("counterpart fail-signalled (%v)", fs.Second))
}

// MarkPermanentlyDown records a value-domain failure (SCR semantics: the
// status variable is irreversibly set to permanently_down).
func (p *Pair) MarkPermanentlyDown() { p.status = PermanentlyDown }

// transitionDown cancels expectations and notifies the protocol once.
func (p *Pair) transitionDown(env runtime.Env, fs *message.FailSignal, reason string) {
	if p.status != Up {
		return
	}
	p.status = Down
	clear(p.expectations)
	p.due, p.head = p.due[:0], 0
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
	if p.cfg.OnDown != nil {
		p.cfg.OnDown(env, fs, reason)
	}
}

// Recover restarts the pair collaboration in a new epoch (SCR semantics
// under assumption 3(b): after a false timing suspicion, members that find
// each other timely again resume as a pair). The caller supplies the
// counterpart's fresh pre-signature for the new epoch, exchanged via
// PairBeat messages. Recovery from PermanentlyDown is refused.
func (p *Pair) Recover(epoch uint64, presigned crypto.Signature) bool {
	if p.status == PermanentlyDown {
		return false
	}
	if epoch <= p.epoch && p.status == Up {
		return false
	}
	p.epoch = epoch
	p.presigned = presigned
	p.emitted = nil
	p.status = Up
	return true
}

// PresignFor produces this member's pre-signature that the counterpart
// needs for the given epoch: a signature over
// FailSignalBody(rank, epoch, Self). The dealer calls it for epoch 0 at
// system initialisation; SCR recovery exchanges fresh ones in PairBeats.
func PresignFor(signer message.Signer, rank types.Rank, epoch uint64, self types.NodeID) (crypto.Signature, error) {
	return message.SignSingle(signer, message.FailSignalBody(rank, epoch, self))
}
