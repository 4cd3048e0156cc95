// Package sessionlog persists one endpoint's transport-session state —
// sealed-but-unacknowledged frames, session epochs, acknowledgement and
// delivery watermarks — in a wal.Log, implementing session.Journal.
//
// Three record kinds follow the live session traffic (a sealed frame, an
// acknowledgement watermark, a delivery watermark); a fourth, the
// checkpoint, summarises every direction's watermark state so that
// segments full of superseded records can be pruned. The prune floor is
// the oldest journalled frame still unacknowledged: everything below it is
// either acknowledged (the peer has the frames) or summarised by a later
// checkpoint, so whole segments below the floor are unlinked once the
// acknowledgement watermark advances past them.
//
// On Open the store replays the log and reconstructs, per direction, the
// epoch, the next sequence number, the unacknowledged frame window (with
// payloads) and the delivery watermark; session.Config.Journal hands these
// to new senders and receivers, which is what lets a restarted process
// resume its previous incarnation's sessions and replay exactly the frames
// that incarnation had sealed but not delivered.
package sessionlog

import (
	"encoding/binary"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/session"
	"github.com/sof-repro/sof/internal/types"
	"github.com/sof-repro/sof/internal/wal"
)

// Record kinds.
const (
	kFrame      = 1
	kAck        = 2
	kDelivered  = 3
	kCheckpoint = 4
)

// pruneCheckEvery bounds how often high-rate record kinds re-evaluate the
// prune floor; acknowledgements always do (they are rare and are what
// moves the floor).
const pruneCheckEvery = 4096

// Options configures a Store.
type Options struct {
	// Dir is the log directory (one per process incarnation lineage).
	Dir string
	// SyncInterval is the group-commit period handed to the wal.Log; the
	// runtime passes its batching interval. Negative disables background
	// sync (tests).
	SyncInterval time.Duration
	// SegmentBytes overrides the wal segment size (0 = wal default).
	SegmentBytes int
	// RingLen is the session retransmission-ring bound this endpoint runs
	// with (default session.DefaultRingLen); frames evicted from the ring
	// can never be replayed, so the store forgets them too.
	RingLen int
	// Logger receives recovery and prune diagnostics.
	Logger *log.Logger
	// Metrics registers the underlying wal.Log's instruments, tagged
	// wal="session" on top of MetricsLabels. nil disables.
	Metrics       *obs.Registry
	MetricsLabels []obs.Label
}

type dirKey struct{ from, to types.NodeID }

// liveFrame tracks one journalled, not-yet-acknowledged frame. payload is
// retained only between recovery and the frame's hand-over to a recovered
// sender; frames journalled by the live incarnation keep payload nil (the
// sender's ring owns the bytes).
type liveFrame struct {
	seq     uint64
	lsn     wal.LSN
	payload []byte
}

// senderRec is one sending direction. Its unacknowledged window is a ring
// of RingLen slots, oldest first from head, in ascending seq (and LSN)
// order: a seal past a full window evicts the head in O(1), as the
// session's own retransmission ring does.
type senderRec struct {
	epoch   uint64
	nextSeq uint64
	acked   uint64
	frames  []liveFrame // ring storage, allocated at the first frame
	head    int         // slot of the oldest frame
	n       int         // frames in the window
}

// at returns the i-th oldest frame of the window.
func (sr *senderRec) at(i int) *liveFrame {
	return &sr.frames[(sr.head+i)%len(sr.frames)]
}

// newEpoch empties the direction for a new sender incarnation.
func (sr *senderRec) newEpoch(epoch uint64) {
	sr.epoch = epoch
	sr.nextSeq = 0
	sr.acked = 0
	for sr.n > 0 {
		sr.popHead()
	}
}

// popHead drops the oldest frame.
func (sr *senderRec) popHead() {
	*sr.at(0) = liveFrame{}
	sr.head = (sr.head + 1) % len(sr.frames)
	sr.n--
}

type recvRec struct {
	epoch     uint64
	epochSet  bool
	delivered uint64
}

// Store is a durable session journal. It implements session.Journal and is
// safe for concurrent use by every per-peer sender goroutine and inbound
// reader of one transport.
type Store struct {
	opts Options

	mu          sync.Mutex
	log         *wal.Log
	senders     map[dirKey]*senderRec
	recvs       map[dirKey]*recvRec
	buf         []byte // scratch encode buffer, reused under mu
	sincePrune  int
	checkpoints uint64
}

var _ session.Journal = (*Store)(nil)

// Open opens (creating if needed) the session journal in opts.Dir and
// recovers the previous incarnation's state from it.
func Open(opts Options) (*Store, error) {
	if opts.RingLen <= 0 {
		opts.RingLen = session.DefaultRingLen
	}
	l, err := wal.Open(wal.Options{
		Dir:           opts.Dir,
		SegmentBytes:  opts.SegmentBytes,
		SyncInterval:  opts.SyncInterval,
		Logger:        opts.Logger,
		Metrics:       opts.Metrics,
		MetricsLabels: append(append([]obs.Label{}, opts.MetricsLabels...), obs.L("wal", "session")),
	})
	if err != nil {
		return nil, err
	}
	s := &Store{
		opts:    opts,
		log:     l,
		senders: make(map[dirKey]*senderRec),
		recvs:   make(map[dirKey]*recvRec),
	}
	if err := l.Replay(0, s.applyRecord); err != nil {
		_ = l.Close()
		return nil, fmt.Errorf("sessionlog: %w", err)
	}
	// Drop frames the previous incarnation's ring had already evicted or
	// the peer had acknowledged; what remains is exactly the replayable
	// unacknowledged window.
	for _, sr := range s.senders {
		s.trimFrames(sr)
	}
	return s, nil
}

// applyRecord folds one journalled record into the in-memory state during
// recovery. rec is reused by the replay loop, so payloads are copied.
func (s *Store) applyRecord(lsn wal.LSN, rec []byte) error {
	if len(rec) < 9 {
		return fmt.Errorf("record %d too short", lsn)
	}
	switch rec[0] {
	case kFrame:
		from, to := getID(rec[1:]), getID(rec[5:])
		payload := rec[9:]
		if len(payload) < session.Overhead {
			return fmt.Errorf("frame record %d too short", lsn)
		}
		epoch := binary.BigEndian.Uint64(payload[2:10])
		seq := binary.BigEndian.Uint64(payload[10:18])
		sr := s.sender(from, to)
		if epoch < sr.epoch {
			return nil // superseded incarnation's frame
		}
		if epoch > sr.epoch {
			sr.newEpoch(epoch)
		}
		if seq > sr.nextSeq {
			sr.nextSeq = seq
		}
		s.push(sr, liveFrame{seq: seq, lsn: lsn, payload: append([]byte(nil), payload...)})
	case kAck:
		if len(rec) < 25 {
			return fmt.Errorf("ack record %d too short", lsn)
		}
		from, to := getID(rec[1:]), getID(rec[5:])
		epoch := binary.BigEndian.Uint64(rec[9:17])
		delivered := binary.BigEndian.Uint64(rec[17:25])
		sr := s.sender(from, to)
		if epoch < sr.epoch {
			return nil
		}
		if epoch > sr.epoch {
			sr.newEpoch(epoch)
		}
		if delivered > sr.acked {
			sr.acked = delivered
		}
	case kDelivered:
		if len(rec) < 25 {
			return fmt.Errorf("delivered record %d too short", lsn)
		}
		from, to := getID(rec[1:]), getID(rec[5:])
		epoch := binary.BigEndian.Uint64(rec[9:17])
		seq := binary.BigEndian.Uint64(rec[17:25])
		s.applyDelivered(from, to, epoch, seq)
	case kCheckpoint:
		return s.applyCheckpoint(lsn, rec)
	default:
		return fmt.Errorf("record %d has unknown kind %d", lsn, rec[0])
	}
	return nil
}

func (s *Store) applyDelivered(from, to types.NodeID, epoch, seq uint64) {
	rr := s.recv(from, to)
	switch {
	case !rr.epochSet || epoch > rr.epoch:
		rr.epoch = epoch
		rr.epochSet = true
		rr.delivered = seq
	case epoch == rr.epoch && seq > rr.delivered:
		rr.delivered = seq
	}
}

func (s *Store) applyCheckpoint(lsn wal.LSN, rec []byte) error {
	r := rec[1:]
	u32 := func() (uint32, bool) {
		if len(r) < 4 {
			return 0, false
		}
		v := binary.BigEndian.Uint32(r)
		r = r[4:]
		return v, true
	}
	u64 := func() (uint64, bool) {
		if len(r) < 8 {
			return 0, false
		}
		v := binary.BigEndian.Uint64(r)
		r = r[8:]
		return v, true
	}
	bad := fmt.Errorf("checkpoint record %d truncated", lsn)
	ns, ok := u32()
	if !ok {
		return bad
	}
	for i := uint32(0); i < ns; i++ {
		f, ok1 := u32()
		t, ok2 := u32()
		epoch, ok3 := u64()
		next, ok4 := u64()
		acked, ok5 := u64()
		if !(ok1 && ok2 && ok3 && ok4 && ok5) {
			return bad
		}
		sr := s.sender(types.NodeID(int32(f)), types.NodeID(int32(t)))
		if epoch < sr.epoch {
			continue
		}
		if epoch > sr.epoch {
			sr.newEpoch(epoch)
		}
		if next > sr.nextSeq {
			sr.nextSeq = next
		}
		if acked > sr.acked {
			sr.acked = acked
		}
	}
	nr, ok := u32()
	if !ok {
		return bad
	}
	for i := uint32(0); i < nr; i++ {
		f, ok1 := u32()
		t, ok2 := u32()
		epoch, ok3 := u64()
		if !(ok1 && ok2 && ok3) || len(r) < 9 {
			return bad
		}
		set := r[0] != 0
		delivered := binary.BigEndian.Uint64(r[1:9])
		r = r[9:]
		if set {
			s.applyDelivered(types.NodeID(int32(f)), types.NodeID(int32(t)), epoch, delivered)
		}
	}
	return nil
}

func (s *Store) sender(from, to types.NodeID) *senderRec {
	k := dirKey{from, to}
	sr, ok := s.senders[k]
	if !ok {
		sr = &senderRec{}
		s.senders[k] = sr
	}
	return sr
}

func (s *Store) recv(from, to types.NodeID) *recvRec {
	k := dirKey{from, to}
	rr, ok := s.recvs[k]
	if !ok {
		rr = &recvRec{}
		s.recvs[k] = rr
	}
	return rr
}

// trimFrames drops, from the head, frames the peer acknowledged or the
// ring evicted. Called with s.mu held (or during single-threaded
// recovery).
func (s *Store) trimFrames(sr *senderRec) {
	floor := sr.acked
	if sr.nextSeq > uint64(s.opts.RingLen) {
		if evicted := sr.nextSeq - uint64(s.opts.RingLen); evicted > floor {
			floor = evicted
		}
	}
	for sr.n > 0 && sr.at(0).seq <= floor {
		sr.popHead()
	}
}

// push adds f at the window's tail, evicting the head when the window is
// full. Called with s.mu held (or during single-threaded recovery).
func (s *Store) push(sr *senderRec, f liveFrame) {
	if sr.frames == nil {
		sr.frames = make([]liveFrame, s.opts.RingLen)
	}
	if sr.n == len(sr.frames) {
		sr.popHead()
	}
	*sr.at(sr.n) = f
	sr.n++
}

// --- session.Journal ---

// RecoverSender implements session.Journal.
func (s *Store) RecoverSender(self, peer types.NodeID) (session.SenderState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr, ok := s.senders[dirKey{self, peer}]
	if !ok || (sr.epoch == 0 && sr.nextSeq == 0) {
		return session.SenderState{}, false
	}
	st := session.SenderState{Epoch: sr.epoch, NextSeq: sr.nextSeq, Acked: sr.acked}
	if sr.nextSeq > uint64(s.opts.RingLen) {
		// Sequences the ring had evicted were trimmed from the journal
		// too; the recovered floor covers them so the sender never treats
		// their empty slots as replayable.
		if evicted := sr.nextSeq - uint64(s.opts.RingLen); evicted > st.Acked {
			st.Acked = evicted
		}
	}
	for i := 0; i < sr.n; i++ {
		f := sr.at(i)
		if f.payload == nil {
			continue // journalled by this incarnation; its ring owns it
		}
		p := f.payload
		st.Unacked = append(st.Unacked, session.Frame{
			Seq:  f.seq,
			Hdr:  p[:session.HeaderLen],
			Body: p[session.HeaderLen : len(p)-session.MACLen],
			MAC:  p[len(p)-session.MACLen:],
		})
		// The recovered sender's ring owns the payload now; keep only the
		// (seq, lsn) bookkeeping for pruning.
		f.payload = nil
	}
	return st, true
}

// SealedFrame implements session.Journal.
func (s *Store) SealedFrame(self, peer types.NodeID, f session.Frame) {
	s.mu.Lock()
	n := 9 + f.WireLen()
	b := s.scratch(n)
	b[0] = kFrame
	putID(b[1:], self)
	putID(b[5:], peer)
	copy(b[9:], f.Hdr)
	copy(b[9+len(f.Hdr):], f.Body)
	copy(b[9+len(f.Hdr)+len(f.Body):], f.MAC)
	lsn, err := s.log.Append(b)
	if err != nil {
		s.mu.Unlock()
		s.logf("journalling sealed frame: %v", err)
		return
	}
	sr := s.sender(self, peer)
	epoch := binary.BigEndian.Uint64(f.Hdr[2:10])
	if epoch > sr.epoch {
		sr.newEpoch(epoch)
	}
	if f.Seq > sr.nextSeq {
		sr.nextSeq = f.Seq
	}
	s.push(sr, liveFrame{seq: f.Seq, lsn: lsn})
	floor := s.pruneFloor(false)
	s.mu.Unlock()
	s.prune(floor)
}

// Acked implements session.Journal.
func (s *Store) Acked(self, peer types.NodeID, epoch, delivered uint64) {
	s.mu.Lock()
	b := s.scratch(25)
	b[0] = kAck
	putID(b[1:], self)
	putID(b[5:], peer)
	binary.BigEndian.PutUint64(b[9:], epoch)
	binary.BigEndian.PutUint64(b[17:], delivered)
	if _, err := s.log.Append(b); err != nil {
		s.mu.Unlock()
		s.logf("journalling ack: %v", err)
		return
	}
	sr := s.sender(self, peer)
	if epoch >= sr.epoch {
		if epoch > sr.epoch {
			sr.newEpoch(epoch)
		}
		if delivered > sr.acked {
			sr.acked = delivered
		}
		s.trimFrames(sr)
	}
	floor := s.pruneFloor(true)
	s.mu.Unlock()
	s.prune(floor)
}

// Delivered implements session.Journal.
func (s *Store) Delivered(from, self types.NodeID, epoch, seq uint64) {
	s.mu.Lock()
	b := s.scratch(25)
	b[0] = kDelivered
	putID(b[1:], from)
	putID(b[5:], self)
	binary.BigEndian.PutUint64(b[9:], epoch)
	binary.BigEndian.PutUint64(b[17:], seq)
	if _, err := s.log.Append(b); err != nil {
		s.mu.Unlock()
		s.logf("journalling delivery watermark: %v", err)
		return
	}
	s.applyDelivered(from, self, epoch, seq)
	floor := s.pruneFloor(false)
	s.mu.Unlock()
	s.prune(floor)
}

// RecoverReceiver implements session.Journal.
func (s *Store) RecoverReceiver(from, self types.NodeID) (session.ReceiverState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rr, ok := s.recvs[dirKey{from, self}]
	if !ok || !rr.epochSet {
		return session.ReceiverState{}, false
	}
	return session.ReceiverState{Epoch: rr.epoch, EpochSet: true, Delivered: rr.delivered}, true
}

// PendingReplay implements session.Journal.
func (s *Store) PendingReplay(self types.NodeID) []types.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	var peers []types.NodeID
	for k, sr := range s.senders {
		if k.from != self {
			continue
		}
		for i := 0; i < sr.n; i++ {
			if sr.at(i).payload != nil {
				peers = append(peers, k.to)
				break
			}
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	return peers
}

// pruneFloor computes the prune floor — the LSN of the oldest journalled
// frame still unacknowledged, the head of some direction's window — and,
// when whole segments lie below it, writes a checkpoint (so watermark
// state survives the cut) and returns the floor for prune; otherwise 0.
// Called with s.mu held. force is set on acknowledgements, the events that
// actually move the floor; other record kinds only check periodically.
func (s *Store) pruneFloor(force bool) wal.LSN {
	s.sincePrune++
	if !force && s.sincePrune < pruneCheckEvery {
		return 0
	}
	s.sincePrune = 0
	floor := s.log.NextLSN()
	for _, sr := range s.senders {
		if sr.n > 0 && sr.at(0).lsn < floor {
			floor = sr.at(0).lsn
		}
	}
	if s.log.PrunableSegments(floor) == 0 {
		return 0
	}
	if err := s.appendCheckpoint(); err != nil {
		s.logf("checkpoint before prune: %v", err)
		return 0
	}
	return floor
}

// prune unlinks the segments below a floor pruneFloor returned, after s.mu
// is released, so no journalling waits on the unlinks.
func (s *Store) prune(floor wal.LSN) {
	if floor > 0 {
		s.log.TruncateBefore(floor)
	}
}

// appendCheckpoint journals a summary of every direction's watermark state;
// records below it are then redundant (except live frames, which the prune
// floor protects). Called with s.mu held.
func (s *Store) appendCheckpoint() error {
	n := 1 + 4 + len(s.senders)*32 + 4 + len(s.recvs)*25
	b := s.scratch(n)
	b[0] = kCheckpoint
	off := 1
	binary.BigEndian.PutUint32(b[off:], uint32(len(s.senders)))
	off += 4
	for k, sr := range s.senders {
		putID(b[off:], k.from)
		putID(b[off+4:], k.to)
		binary.BigEndian.PutUint64(b[off+8:], sr.epoch)
		binary.BigEndian.PutUint64(b[off+16:], sr.nextSeq)
		binary.BigEndian.PutUint64(b[off+24:], sr.acked)
		off += 32
	}
	binary.BigEndian.PutUint32(b[off:], uint32(len(s.recvs)))
	off += 4
	for k, rr := range s.recvs {
		putID(b[off:], k.from)
		putID(b[off+4:], k.to)
		binary.BigEndian.PutUint64(b[off+8:], rr.epoch)
		b[off+16] = 0
		if rr.epochSet {
			b[off+16] = 1
		}
		binary.BigEndian.PutUint64(b[off+17:], rr.delivered)
		off += 25
	}
	_, err := s.log.Append(b[:off])
	if err == nil {
		s.checkpoints++
	}
	return err
}

// scratch returns the reusable encode buffer sized to n. Called with s.mu
// held; wal.Append copies out of it before returning.
func (s *Store) scratch(n int) []byte {
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	return s.buf[:n]
}

// Sync forces a group commit of everything journalled so far.
func (s *Store) Sync() error { return s.log.Sync() }

// Stats exposes the underlying log's counters plus checkpoint count.
func (s *Store) Stats() (wal.Stats, uint64) {
	s.mu.Lock()
	cp := s.checkpoints
	s.mu.Unlock()
	return s.log.Stats(), cp
}

// Close flushes and closes the journal.
func (s *Store) Close() error { return s.log.Close() }

// Crash closes the journal without flushing, losing records since the
// last group commit — the test hook that makes an in-process kill behave
// like a real process death.
func (s *Store) Crash() { s.log.Crash() }

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf("sessionlog %s: %s", s.opts.Dir, fmt.Sprintf(format, args...))
	}
}

func putID(b []byte, id types.NodeID) { binary.BigEndian.PutUint32(b, uint32(int32(id))) }

func getID(b []byte) types.NodeID { return types.NodeID(int32(binary.BigEndian.Uint32(b))) }
