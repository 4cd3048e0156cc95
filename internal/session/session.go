package session

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// Version is the frame-format version this package implements.
const Version = 2

// Frame kinds (byte 1 of every session payload).
const (
	kindData  = 1
	kindHello = 2
	kindAck   = 3
)

const (
	// HeaderLen is the data-frame header: version, kind, epoch, sequence.
	HeaderLen = 1 + 1 + 8 + 8
	// MACLen is the HMAC-SHA256 trailer length.
	MACLen = sha256.Size
	// Overhead is the total bytes a session adds to each data frame.
	Overhead = HeaderLen + MACLen
	// HelloLen is the exact length of a hello payload.
	HelloLen = 1 + 1 + 4 + 4 + 8 + MACLen
	// AckLen is the exact length of a hello-ack payload.
	AckLen = 1 + 1 + 4 + 4 + 8 + 8 + MACLen
)

// DefaultRingLen is the default retransmission-ring capacity, matching
// the transport's default per-peer queue bound: a reconnect can replay at
// most as many frames as the peer queue could have held.
const DefaultRingLen = 1024

var (
	// ErrBadMAC reports a frame whose HMAC trailer does not verify for
	// the claimed direction.
	ErrBadMAC = errors.New("session: MAC verification failed")
	// ErrMalformed reports a payload that is not a well-formed session
	// frame (wrong length, version or kind, or mismatched endpoints).
	ErrMalformed = errors.New("session: malformed frame")
	// ErrStaleEpoch reports a hello carrying an epoch older than the one
	// the receiver currently holds (a replayed hello, or a sender whose
	// clock regressed across a restart). The transport answers it with
	// the current ack so a genuine sender can adopt a newer epoch.
	ErrStaleEpoch = errors.New("session: hello for a stale session epoch")
	// ErrEpochBehind reports that the peer's ack revealed a newer epoch
	// than this sender's — its clock regressed across a restart. The
	// sender has adopted a newer epoch; the caller should redial and
	// re-handshake.
	ErrEpochBehind = errors.New("session: local epoch behind peer's; adopted a newer one, re-handshake")
)

// Config describes one endpoint's session parameters; all endpoints of a
// deployment must agree on Keys.
type Config struct {
	// Keys is the dealer-issued link-key material MACs are derived from.
	Keys *crypto.LinkKeys
	// Resume is ignored: every session replays the gap from its
	// retransmission ring on reconnect.
	//
	// Deprecated: kept while the bench module still sets it.
	Resume bool
	// RingLen bounds the retransmission ring, in frames (default
	// DefaultRingLen). Gaps larger than the ring are reported as lost.
	RingLen int
	// Journal, when non-nil, makes the endpoint's session state durable:
	// sealed frames, acknowledgement watermarks and delivery watermarks
	// are journalled as they change, and new senders/receivers recover
	// the previous incarnation's state — epoch, sequence numbers and the
	// unacknowledged frame window — instead of starting fresh. A
	// restarted process therefore keeps its session epoch and replays
	// exactly what its dead incarnation had sealed but not delivered.
	Journal Journal
}

// SenderState is a recovered sending direction: the incarnation epoch to
// keep using, the next sequence number minus one, the acknowledgement
// floor (the highest sequence known delivered or forgotten — sequences
// at or below it are NOT in Unacked and can never be replayed), and the
// sealed frames the peer has not acknowledged, ascending by sequence.
type SenderState struct {
	Epoch   uint64
	NextSeq uint64
	Acked   uint64
	Unacked []Frame
}

// ReceiverState is a recovered receiving direction: the sender epoch whose
// delivery watermark is held, and the watermark itself.
type ReceiverState struct {
	Epoch     uint64
	EpochSet  bool
	Delivered uint64
}

// Journal persists per-direction session state so a restarted process can
// resume its previous incarnation's sessions. Implementations must be safe
// for concurrent use (directions journal from independent goroutines) and
// must never call back into this package's Sender/Receiver. The write
// methods are hot-path calls: they are expected to buffer and group-commit
// rather than touch the disk synchronously.
type Journal interface {
	// RecoverSender returns the persisted state of the self->peer sending
	// direction, if any. The sender takes ownership of the returned
	// frames.
	RecoverSender(self, peer types.NodeID) (SenderState, bool)
	// SealedFrame records a newly sealed frame for self->peer (epoch and
	// sequence travel in f.Hdr). The frame segments must be treated as
	// immutable, and Hdr and MAC copied if kept: they are the sender's
	// (see Frame).
	SealedFrame(self, peer types.NodeID, f Frame)
	// Acked records the peer's delivery watermark for self->peer learned
	// from a verified hello-ack; frames at or below it can be forgotten.
	Acked(self, peer types.NodeID, epoch, delivered uint64)
	// RecoverReceiver returns the persisted state of the from->self
	// receiving direction, if any.
	RecoverReceiver(from, self types.NodeID) (ReceiverState, bool)
	// Delivered records the from->self delivery watermark after a frame
	// is accepted (or an epoch supersession resets it to 0).
	Delivered(from, self types.NodeID, epoch, seq uint64)
	// PendingReplay lists the peers for which recovered, still
	// unacknowledged frames exist, so a transport can dial them eagerly
	// at startup and replay without waiting for new traffic.
	PendingReplay(self types.NodeID) []types.NodeID
}

func (c *Config) ringLen() int {
	if c.RingLen > 0 {
		return c.RingLen
	}
	return DefaultRingLen
}

// lastEpoch makes epochs strictly increasing within a process even when
// two senders are created in the same clock tick (tests and harnesses
// recreate endpoints rapidly); across process restarts the wall clock
// provides the ordering.
var lastEpoch atomic.Uint64

func newEpoch() uint64 {
	now := uint64(time.Now().UnixNano())
	for {
		last := lastEpoch.Load()
		if now <= last {
			now = last + 1
		}
		if lastEpoch.CompareAndSwap(last, now) {
			return now
		}
	}
}

// NewSender builds the sending half of the self->peer direction. The
// sender stamps a fresh, monotonically increasing session epoch (the
// process's start time), so a restarted process — whose sequence numbers
// begin again at 1 — supersedes its previous incarnation's delivery
// state at the peer instead of colliding with it.
//
// With a Journal, a direction the previous incarnation used is recovered
// instead: the sender keeps that incarnation's epoch, continues its
// sequence numbers, and reloads its unacknowledged frames into the
// retransmission ring, so the first handshake replays what the dead
// process had in flight.
func (c *Config) NewSender(self, peer types.NodeID) *Sender {
	s := &Sender{
		self:    self,
		peer:    peer,
		epoch:   newEpoch(),
		journal: c.Journal,
		mac:     hmac.New(sha256.New, c.Keys.DirKey(self, peer)),
		ackMAC:  hmac.New(sha256.New, c.Keys.DirKey(peer, self)),
		ring:    make([]Frame, c.ringLen()),
	}
	s.Reserve(c.ringLen())
	if c.Journal != nil {
		if st, ok := c.Journal.RecoverSender(self, peer); ok {
			s.epoch = st.Epoch
			atomic.StoreUint64(&s.nextSeq, st.NextSeq)
			s.written = st.NextSeq // the dead incarnation may have sent any of them
			for _, f := range st.Unacked {
				s.ring[f.Seq%uint64(len(s.ring))] = f
			}
			s.recovered = len(st.Unacked) > 0
			// Ring slots at or below the recovered acknowledgement floor
			// are empty, not sealed frames: a peer that lost its own
			// watermark and acks below the floor must never be "replayed"
			// zero-value frames from those slots.
			s.ringFloor = st.Acked
		}
	}
	return s
}

// CheckHello verifies a hello payload addressed to self without creating
// or touching any per-direction state (keys are derived uncached), so a
// transport can authenticate the claimed sender *before* allocating a
// Receiver for it — forged hellos must not grow per-sender maps.
func (c *Config) CheckHello(self types.NodeID, p []byte) error {
	from, to, err := ParseHello(p)
	if err != nil {
		return err
	}
	if to != self {
		return fmt.Errorf("%w: hello for wrong endpoint", ErrMalformed)
	}
	m := hmac.New(sha256.New, c.Keys.DirKeyUncached(from, self))
	m.Write(p[:HelloLen-MACLen])
	var sum [MACLen]byte
	if !hmac.Equal(m.Sum(sum[:0]), p[HelloLen-MACLen:]) {
		return ErrBadMAC
	}
	return nil
}

// NewReceiver builds the receiving half of the from->self direction. With
// a Journal the previous incarnation's epoch and delivery watermark are
// recovered, so a restarted receiver acknowledges where it really was —
// the sender replays only the gap, and stale-epoch replays stay rejected
// across the restart.
func (c *Config) NewReceiver(self, from types.NodeID) *Receiver {
	r := &Receiver{
		self:    self,
		from:    from,
		journal: c.Journal,
		mac:     hmac.New(sha256.New, c.Keys.DirKey(from, self)),
		ackMAC:  hmac.New(sha256.New, c.Keys.DirKey(self, from)),
	}
	if c.Journal != nil {
		if st, ok := c.Journal.RecoverReceiver(from, self); ok {
			r.epoch = st.Epoch
			r.epochSet = st.EpochSet
			r.lastDelivered = st.Delivered
		}
	}
	return r
}

// Frame is one sealed data frame, held as three gather segments so the
// transport can writev header, caller-owned immutable body and MAC
// without copying the body. Hdr and MAC of a frame Seal returned belong
// to the sender's slab slot for its sequence number: they hold until the
// slot is sealed into again (see Sender.Reserve), which the
// retransmission ring never outlasts. Whoever keeps a frame longer
// copies it (Append); recovered frames own their bytes.
type Frame struct {
	Seq  uint64
	Hdr  []byte // HeaderLen bytes
	Body []byte
	MAC  []byte // MACLen bytes
}

// WireLen is the frame's total payload length on the wire.
func (f Frame) WireLen() int { return len(f.Hdr) + len(f.Body) + len(f.MAC) }

// Append appends the flat wire payload (header | body | mac) to dst.
// The hot path gathers the segments with writev instead; Append serves
// synchronous writers and tests.
func (f Frame) Append(dst []byte) []byte {
	dst = append(dst, f.Hdr...)
	dst = append(dst, f.Body...)
	return append(dst, f.MAC...)
}

// Sender seals outbound frames for one direction and retains them in a
// bounded ring for resume replay. It is owned by a single goroutine (the
// transport's per-peer sender loop); only Stats may be called
// concurrently.
type Sender struct {
	self, peer types.NodeID
	epoch      uint64
	journal    Journal
	recovered  bool      // ring holds a dead incarnation's frames awaiting replay
	mac        hash.Hash // keyed K(self->peer): data frames and hello
	ackMAC     hash.Hash // keyed K(peer->self): verifies the peer's acks
	nextSeq    uint64    // sequence the next Seal assigns, minus one frames exist
	ring       []Frame   // sealed frames by sequence, for resume replay
	ringFloor  uint64    // highest sequence NOT present in the ring (recovery)
	lossFloor  uint64    // highest sequence already accounted as unrecoverable
	// written is the highest sequence the transport has written to a
	// connection (Wrote), or that a dead incarnation may have sent (the
	// recovered window): a replayed frame at or below it is a
	// retransmission, one above it is sent for the first time.
	written uint64
	// slab is the header+MAC storage of the frames sealed last: slots
	// Overhead-sized slots, indexed by sequence number as the ring is and
	// at least as many. Sealing is this goroutine's alone, so a slot is
	// rewritten only when its frame is slots seals old.
	slab  []byte
	slots uint64

	retransmitted atomic.Uint64
	lost          atomic.Uint64
}

// SenderStats is a point-in-time snapshot of a Sender's counters.
type SenderStats struct {
	// Sealed is how many frames have been sealed (== highest sequence
	// number assigned).
	Sealed uint64
	// Retransmitted counts frames replayed from the ring on resume that
	// had been written before (see Wrote) or were recovered from a
	// journal. A frame sealed while no connection was up travels in the
	// first handshake's replay for the first time and is not counted.
	Retransmitted uint64
	// Lost counts frames a reconnect could not recover: evicted from the
	// ring before the peer acknowledged them.
	Lost uint64
}

// Stats returns the sender's counters. Safe for concurrent use.
func (s *Sender) Stats() SenderStats {
	return SenderStats{
		Sealed:        atomic.LoadUint64(&s.nextSeq),
		Retransmitted: s.retransmitted.Load(),
		Lost:          s.lost.Load(),
	}
}

// NeedsReplay reports whether the sender holds recovered frames from a
// previous incarnation that have not yet been offered to the peer; a
// transport should dial and handshake eagerly instead of waiting for new
// traffic to trigger the connection.
func (s *Sender) NeedsReplay() bool { return s.recovered }

// Reserve makes the Hdr and MAC of a sealed frame hold for at least
// frames-1 further seals, whatever the ring length: a transport that
// seals a batch before writing it reserves its largest batch, so a ring
// configured shorter than that cannot rewrite a slot still in the batch.
func (s *Sender) Reserve(frames int) {
	if uint64(frames) > s.slots {
		s.slab, s.slots = make([]byte, frames*Overhead), uint64(frames)
	}
}

// Seal assigns body the next sequence number, MACs it, stores the sealed
// frame in the retransmission ring and returns it. body must be
// immutable (the cached wire encoding is). The frame's Hdr and MAC live
// in the sender's slab (see Frame).
func (s *Sender) Seal(body []byte) Frame {
	seq := atomic.AddUint64(&s.nextSeq, 1)
	slot := int(seq%s.slots) * Overhead
	buf := s.slab[slot : slot+Overhead : slot+Overhead]
	hdr := buf[:HeaderLen:HeaderLen]
	hdr[0] = Version
	hdr[1] = kindData
	binary.BigEndian.PutUint64(hdr[2:], s.epoch)
	binary.BigEndian.PutUint64(hdr[10:], seq)
	s.mac.Reset()
	s.mac.Write(hdr)
	s.mac.Write(body)
	mac := s.mac.Sum(buf[HeaderLen:HeaderLen])
	f := Frame{Seq: seq, Hdr: hdr, Body: body, MAC: mac}
	s.ring[seq%uint64(len(s.ring))] = f
	if s.journal != nil {
		// Buffered append; the journal's group commit makes it durable on
		// the next sync interval, off this hot path.
		s.journal.SealedFrame(s.self, s.peer, f)
	}
	return f
}

// Wrote records that the frame with sequence seq, and every frame sealed
// before it, has been written to a connection: a later replay of them is a
// retransmission.
func (s *Sender) Wrote(seq uint64) { s.written = max(s.written, seq) }

// Hello builds the authenticated hello that opens a connection for this
// direction.
func (s *Sender) Hello() []byte {
	b := make([]byte, HelloLen)
	b[0] = Version
	b[1] = kindHello
	putID(b[2:], s.self)
	putID(b[6:], s.peer)
	binary.BigEndian.PutUint64(b[10:], s.epoch)
	s.mac.Reset()
	s.mac.Write(b[:HelloLen-MACLen])
	s.mac.Sum(b[HelloLen-MACLen : HelloLen-MACLen])
	return b
}

// HandleAck verifies the peer's hello-ack and computes the resume replay:
// the sealed frames the peer has not delivered, oldest first. Frames that
// have already been evicted from the ring are counted as lost.
func (s *Sender) HandleAck(p []byte) (replay []Frame, lost uint64, err error) {
	if len(p) != AckLen || p[0] != Version || p[1] != kindAck {
		return nil, 0, ErrMalformed
	}
	if getID(p[2:]) != s.peer || getID(p[6:]) != s.self {
		return nil, 0, fmt.Errorf("%w: ack for wrong direction", ErrMalformed)
	}
	s.ackMAC.Reset()
	s.ackMAC.Write(p[:AckLen-MACLen])
	var sum [MACLen]byte
	if !hmac.Equal(s.ackMAC.Sum(sum[:0]), p[AckLen-MACLen:]) {
		return nil, 0, ErrBadMAC
	}
	if epoch := binary.BigEndian.Uint64(p[10:18]); epoch != s.epoch {
		if epoch > s.epoch && atomic.LoadUint64(&s.nextSeq) == 0 {
			// The peer authenticated a newer epoch than ours: our clock
			// regressed across a restart (epochs are start times).
			// Adopt a successor epoch so the next handshake is accepted.
			// Only a sender that has sealed nothing may adopt — a live
			// process mid-stream whose ID was taken over by a successor
			// (split brain) stays locked out instead of fighting it.
			s.epoch = epoch + 1
			return nil, 0, fmt.Errorf("%w (peer at %d)", ErrEpochBehind, epoch)
		}
		return nil, 0, fmt.Errorf("%w: ack for session epoch %d, not %d", ErrMalformed, epoch, s.epoch)
	}
	delivered := binary.BigEndian.Uint64(p[18:26])
	latest := atomic.LoadUint64(&s.nextSeq)
	if delivered > latest {
		return nil, 0, fmt.Errorf("%w: ack beyond %d sealed frames", ErrMalformed, latest)
	}
	// The handshake completed: whatever was recovered is now offered to
	// the peer (as replay below, or proven delivered by the watermark).
	s.recovered = false
	if s.journal != nil {
		s.journal.Acked(s.self, s.peer, s.epoch, delivered)
	}
	if delivered == latest {
		return nil, 0, nil
	}
	first := delivered + 1
	oldest := uint64(1)
	if n := uint64(len(s.ring)); latest > n {
		oldest = latest - n + 1
	}
	if s.ringFloor+1 > oldest {
		// Recovery did not reload sequences at or below the floor (the
		// journal had already forgotten them as acknowledged/evicted);
		// their ring slots are empty.
		oldest = s.ringFloor + 1
	}
	if first < oldest {
		// Sequences in (delivered, oldest) were evicted before the peer
		// acknowledged them. Count each at most once: repeated handshakes
		// against the same watermark (a flaky link) must not inflate the
		// operator-facing loss accounting.
		if lo := max(delivered, s.lossFloor); oldest-1 > lo {
			lost = oldest - 1 - lo
			s.lost.Add(lost)
			s.lossFloor = oldest - 1
		}
		first = oldest
	}
	replay = make([]Frame, 0, latest-first+1)
	resent := uint64(0)
	for q := first; q <= latest; q++ {
		// Belt and braces: a slot that does not hold exactly sequence q
		// (overwritten or never filled) must not reach the wire as a
		// zero-value frame; account it as lost instead.
		if f := s.ring[q%uint64(len(s.ring))]; f.Seq == q && f.Hdr != nil {
			replay = append(replay, f)
			if q <= s.written {
				resent++
			}
		} else {
			s.lost.Add(1)
			lost++
		}
	}
	s.retransmitted.Add(resent)
	return replay, lost, nil
}

// Receiver verifies and orders inbound frames for one direction. It is
// internally locked: the acceptor may have a dying connection's reader
// and its successor's handshake touching the same direction state.
type Receiver struct {
	mu         sync.Mutex
	self, from types.NodeID
	journal    Journal
	mac        hash.Hash // keyed K(from->self): data frames and hello
	ackMAC     hash.Hash // keyed K(self->from): signs acks
	// sum is where Open and VerifyHello compute the expected MAC, under
	// mu: a local array would escape through hash.Hash on every frame.
	sum [MACLen]byte

	// epoch is the sender incarnation whose lastDelivered watermark is
	// held. Epochs only move forward (a hello with a lower epoch is
	// rejected as stale), so a replayed old hello cannot rewind the
	// watermark and trick the current sender into duplicating delivery.
	epoch         uint64
	epochSet      bool
	lastDelivered uint64

	duplicates uint64
	gaps       uint64
	rejected   uint64
}

// ReceiverStats is a point-in-time snapshot of a Receiver's counters.
type ReceiverStats struct {
	// Epoch is the sender incarnation currently accepted on this
	// direction (0 until the first authenticated hello).
	Epoch uint64
	// Delivered is the highest sequence number delivered so far.
	Delivered uint64
	// Duplicates counts frames dropped because they were already
	// delivered (resume replay overlap, or an attacker replaying).
	Duplicates uint64
	// Gaps counts sequence numbers skipped over: frames lost beyond the
	// sender's ring.
	Gaps uint64
	// Rejected counts frames and hellos refused for a bad MAC or
	// malformed layout.
	Rejected uint64
}

// Stats returns the receiver's counters.
func (r *Receiver) Stats() ReceiverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReceiverStats{
		Epoch:      r.epoch,
		Delivered:  r.lastDelivered,
		Duplicates: r.duplicates,
		Gaps:       r.gaps,
		Rejected:   r.rejected,
	}
}

// ParseHello checks the structural layout of a hello payload and returns
// the claimed endpoints. It performs no authentication — the caller looks
// up the Receiver for the claimed sender and calls VerifyHello.
func ParseHello(p []byte) (from, to types.NodeID, err error) {
	if len(p) != HelloLen || p[0] != Version || p[1] != kindHello {
		return 0, 0, ErrMalformed
	}
	return getID(p[2:]), getID(p[6:]), nil
}

// VerifyHello authenticates a structurally valid hello against this
// direction's key and applies the epoch rule: the sender's current
// incarnation resumes against the held watermark, a newer incarnation (a
// restarted process) supersedes it with a fresh one, and an older epoch
// — a replayed or long-delayed hello — is rejected as stale.
func (r *Receiver) VerifyHello(p []byte) error {
	from, to, err := ParseHello(p)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if from != r.from || to != r.self {
		r.rejected++
		return fmt.Errorf("%w: hello for wrong direction", ErrMalformed)
	}
	r.mac.Reset()
	r.mac.Write(p[:HelloLen-MACLen])
	if !hmac.Equal(r.mac.Sum(r.sum[:0]), p[HelloLen-MACLen:]) {
		r.rejected++
		return ErrBadMAC
	}
	epoch := binary.BigEndian.Uint64(p[10:18])
	switch {
	case !r.epochSet || epoch > r.epoch:
		r.epoch = epoch
		r.epochSet = true
		r.lastDelivered = 0
		if r.journal != nil {
			// Persist the supersession: after a restart the receiver must
			// keep rejecting the old incarnation's epochs.
			r.journal.Delivered(r.from, r.self, r.epoch, 0)
		}
	case epoch < r.epoch:
		r.rejected++
		return fmt.Errorf("%w: %d (current %d)", ErrStaleEpoch, epoch, r.epoch)
	}
	return nil
}

// Ack builds the authenticated hello-ack carrying the highest sequence
// number delivered so far, which tells a resuming sender where to start
// its replay.
func (r *Receiver) Ack() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := make([]byte, AckLen)
	b[0] = Version
	b[1] = kindAck
	putID(b[2:], r.self)
	putID(b[6:], r.from)
	binary.BigEndian.PutUint64(b[10:], r.epoch)
	binary.BigEndian.PutUint64(b[18:], r.lastDelivered)
	r.ackMAC.Reset()
	r.ackMAC.Write(b[:AckLen-MACLen])
	r.ackMAC.Sum(b[AckLen-MACLen : AckLen-MACLen])
	return b
}

// Open authenticates one data frame and applies the delivery check. It
// returns the frame body to deliver, nil for a duplicate that must be
// dropped silently, or an error for a frame that fails authentication
// (the caller should drop the connection: the stream is tampered or
// corrupt). The body aliases p.
func (r *Receiver) Open(p []byte) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(p) < Overhead || p[0] != Version || p[1] != kindData {
		r.rejected++
		return nil, ErrMalformed
	}
	r.mac.Reset()
	r.mac.Write(p[:len(p)-MACLen])
	if !hmac.Equal(r.mac.Sum(r.sum[:0]), p[len(p)-MACLen:]) {
		r.rejected++
		return nil, ErrBadMAC
	}
	if epoch := binary.BigEndian.Uint64(p[2:10]); !r.epochSet || epoch != r.epoch {
		// A frame from a superseded incarnation (its connection outlived
		// the successor's hello): its watermark no longer applies, so it
		// must not be delivered. The stale connection gets dropped and
		// its sender, if alive, re-handshakes.
		r.rejected++
		return nil, fmt.Errorf("%w: frame for session epoch %d (current %d)", ErrMalformed, epoch, r.epoch)
	}
	seq := binary.BigEndian.Uint64(p[10:18])
	body := p[HeaderLen : len(p)-MACLen]
	switch {
	case seq <= r.lastDelivered:
		r.duplicates++
		return nil, nil
	case seq > r.lastDelivered+1:
		// The gap is unrecoverable at this layer (beyond the sender's
		// ring); the asynchronous model tolerates loss, so deliver and
		// account for it.
		r.gaps += seq - r.lastDelivered - 1
	}
	r.lastDelivered = seq
	if r.journal != nil {
		r.journal.Delivered(r.from, r.self, r.epoch, seq)
	}
	return body, nil
}

func putID(b []byte, id types.NodeID) {
	binary.BigEndian.PutUint32(b, uint32(int32(id)))
}

func getID(b []byte) types.NodeID {
	return types.NodeID(int32(binary.BigEndian.Uint32(b)))
}
