// Package commitlog persists the measurement recorder's commit stream in
// a wal.Log, so that (a) CommitsSince cursors that have fallen below the
// in-memory retention ring are served from disk instead of being reported
// as dropped, and (b) commit history — the committed-request index
// included — survives a process crash and restart.
//
// Every record is exactly one commit event, appended in stream order, so
// record LSNs and stream positions stay aligned: the event at stream
// position p lives at LSN p+1. The position is nevertheless embedded in
// each record and verified on read, so a mismatch is detected rather than
// silently misattributed. Pruning follows the recorder's prune watermark:
// once a position is below both the reader's cursor and the retention
// ring (and the operator opted into bounded retention), the segments
// wholly below it are unlinked.
package commitlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/types"
	"github.com/sof-repro/sof/internal/wal"
)

// Options configures a Store.
type Options struct {
	// Dir is the log directory.
	Dir string
	// SyncInterval is the group-commit period (the runtime passes its
	// batching interval). Negative disables background sync (tests).
	SyncInterval time.Duration
	// SegmentBytes overrides the wal segment size (0 = wal default).
	SegmentBytes int
	// Logger receives recovery and append diagnostics.
	Logger *log.Logger
	// Metrics registers the underlying wal.Log's instruments, tagged
	// wal="commit" on top of MetricsLabels. nil disables.
	Metrics       *obs.Registry
	MetricsLabels []obs.Label
}

// Store is a durable commit stream. It is safe for concurrent use.
type Store struct {
	opts Options

	mu           sync.Mutex
	log          *wal.Log
	count        uint64 // next stream position (== events ever appended)
	buf          []byte // scratch encode buffer
	maxClientSeq map[types.NodeID]uint64
}

// Open opens (creating if needed) the commit store and recovers the
// persisted stream: its length and the highest ClientSeq seen per client
// (so a restarted deployment's clients do not reuse request IDs that
// committed in a previous incarnation).
func Open(opts Options) (*Store, error) {
	l, err := wal.Open(wal.Options{
		Dir:           opts.Dir,
		SegmentBytes:  opts.SegmentBytes,
		SyncInterval:  opts.SyncInterval,
		Logger:        opts.Logger,
		Metrics:       opts.Metrics,
		MetricsLabels: append(append([]obs.Label{}, opts.MetricsLabels...), obs.L("wal", "commit")),
	})
	if err != nil {
		return nil, err
	}
	s := &Store{opts: opts, log: l, maxClientSeq: make(map[types.NodeID]uint64)}
	err = l.Replay(0, func(lsn wal.LSN, rec []byte) error {
		pos, ev, err := decodeEvent(rec)
		if err != nil {
			return fmt.Errorf("commitlog: record %d: %w", lsn, err)
		}
		if pos != uint64(lsn)-1 {
			return fmt.Errorf("commitlog: record %d carries stream position %d", lsn, pos)
		}
		s.count = pos + 1
		for i := range ev.Entries {
			req := ev.Entries[i].Req
			if req.ClientSeq > s.maxClientSeq[req.Client] {
				s.maxClientSeq[req.Client] = req.ClientSeq
			}
		}
		return nil
	})
	if err != nil {
		_ = l.Close()
		return nil, err
	}
	// An empty-but-pruned log still knows where the stream continues.
	if next := uint64(l.NextLSN()) - 1; next > s.count {
		s.count = next
	}
	return s, nil
}

// Count returns the recovered stream length: the position the next commit
// event will get.
func (s *Store) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// MaxClientSeqs returns the highest committed ClientSeq per client found
// at recovery (callers use it to restart client sequence counters above
// history).
func (s *Store) MaxClientSeqs() map[types.NodeID]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[types.NodeID]uint64, len(s.maxClientSeq))
	for k, v := range s.maxClientSeq {
		out[k] = v
	}
	return out
}

// Append journals one commit event at stream position pos. Appends must
// arrive in position order (the recorder serialises them under its own
// lock); a gap is logged and the event dropped rather than corrupting the
// position/LSN alignment.
func (s *Store) Append(pos uint64, ev core.CommitEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pos != s.count {
		s.logf("append at position %d, expected %d; dropping", pos, s.count)
		return
	}
	s.buf = encodeEvent(s.buf[:0], pos, ev)
	if _, err := s.log.Append(s.buf); err != nil {
		s.logf("append: %v", err)
		return
	}
	s.count = pos + 1
}

// errStopRead aborts a Replay once enough events are decoded.
var errStopRead = errors.New("commitlog: read limit reached")

// ReadSince returns up to max commit events from the durable stream
// starting at position cursor (or at the oldest retained position, if the
// head below cursor has been pruned), plus the position after the last
// returned event. It reads from disk; buffered appends are flushed first.
func (s *Store) ReadSince(cursor uint64, max int) ([]core.CommitEvent, uint64, error) {
	var events []core.CommitEvent
	next := cursor
	err := s.log.Replay(wal.LSN(cursor+1), func(lsn wal.LSN, rec []byte) error {
		pos, ev, err := decodeEvent(rec)
		if err != nil {
			return fmt.Errorf("commitlog: record %d: %w", lsn, err)
		}
		if pos != uint64(lsn)-1 {
			return fmt.Errorf("commitlog: record %d carries stream position %d", lsn, pos)
		}
		if events == nil {
			next = pos
			events = make([]core.CommitEvent, 0, max)
		}
		events = append(events, ev)
		next = pos + 1
		if len(events) >= max {
			return errStopRead
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopRead) {
		return nil, cursor, err
	}
	return events, next, nil
}

// TruncateBefore unlinks segments wholly below stream position pos; call
// it with the recorder's prune watermark when retention is bounded.
func (s *Store) TruncateBefore(pos uint64) { s.log.TruncateBefore(wal.LSN(pos + 1)) }

// Sync forces a group commit.
func (s *Store) Sync() error { return s.log.Sync() }

// Stats exposes the underlying log's counters.
func (s *Store) Stats() wal.Stats { return s.log.Stats() }

// Close flushes and closes the store.
func (s *Store) Close() error { return s.log.Close() }

// Crash closes the store without flushing (test hook: records since the
// last group commit are lost, as a process death would lose them).
func (s *Store) Crash() { s.log.Crash() }

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf("commitlog %s: %s", s.opts.Dir, fmt.Sprintf(format, args...))
	}
}

// encodeEvent appends the wire form of (pos, ev) to dst:
//
//	pos 8 | node 4 | view 8 | kind 1 | firstSeq 8 | lastSeq 8 | at 8 |
//	nEntries 4 | nEntries x { client 4 | clientSeq 8 | digestLen 2 | digest }
func encodeEvent(dst []byte, pos uint64, ev core.CommitEvent) []byte {
	var b [8]byte
	put64 := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		dst = append(dst, b[:8]...)
	}
	put32 := func(v uint32) {
		binary.BigEndian.PutUint32(b[:4], v)
		dst = append(dst, b[:4]...)
	}
	put64(pos)
	put32(uint32(int32(ev.Node)))
	put64(uint64(ev.View))
	dst = append(dst, byte(ev.Kind))
	put64(uint64(ev.FirstSeq))
	put64(uint64(ev.LastSeq))
	put64(uint64(ev.At.UnixNano()))
	put32(uint32(len(ev.Entries)))
	for i := range ev.Entries {
		e := &ev.Entries[i]
		put32(uint32(int32(e.Req.Client)))
		put64(e.Req.ClientSeq)
		binary.BigEndian.PutUint16(b[:2], uint16(len(e.ReqDigest)))
		dst = append(dst, b[:2]...)
		dst = append(dst, e.ReqDigest...)
	}
	return dst
}

func decodeEvent(rec []byte) (pos uint64, ev core.CommitEvent, err error) {
	short := errors.New("truncated event")
	r := rec
	u64 := func() (uint64, bool) {
		if len(r) < 8 {
			return 0, false
		}
		v := binary.BigEndian.Uint64(r)
		r = r[8:]
		return v, true
	}
	u32 := func() (uint32, bool) {
		if len(r) < 4 {
			return 0, false
		}
		v := binary.BigEndian.Uint32(r)
		r = r[4:]
		return v, true
	}
	var ok bool
	if pos, ok = u64(); !ok {
		return 0, ev, short
	}
	node, ok1 := u32()
	view, ok2 := u64()
	if !ok1 || !ok2 || len(r) < 1 {
		return 0, ev, short
	}
	kind := r[0]
	r = r[1:]
	first, ok3 := u64()
	last, ok4 := u64()
	at, ok5 := u64()
	n, ok6 := u32()
	if !(ok3 && ok4 && ok5 && ok6) {
		return 0, ev, short
	}
	ev.Node = types.NodeID(int32(node))
	ev.View = types.View(view)
	ev.Kind = message.SubjectKind(kind)
	ev.FirstSeq = types.Seq(first)
	ev.LastSeq = types.Seq(last)
	ev.At = time.Unix(0, int64(at))
	if n > uint32(len(rec)) { // entries cannot outnumber record bytes
		return 0, ev, fmt.Errorf("implausible entry count %d", n)
	}
	ev.Entries = make([]message.OrderEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		client, ok1 := u32()
		cseq, ok2 := u64()
		if !ok1 || !ok2 || len(r) < 2 {
			return 0, ev, short
		}
		dn := int(binary.BigEndian.Uint16(r))
		r = r[2:]
		if len(r) < dn {
			return 0, ev, short
		}
		var digest []byte
		if dn > 0 {
			digest = append([]byte(nil), r[:dn]...)
		}
		r = r[dn:]
		ev.Entries = append(ev.Entries, message.OrderEntry{
			Req:       message.ReqID{Client: types.NodeID(int32(client)), ClientSeq: cseq},
			ReqDigest: digest,
		})
	}
	return pos, ev, nil
}
