// Package protolog persists an order process's protocol checkpoints — the
// installed regime (view, rank), pair epochs, committed-sequence watermark,
// proposal counter and rolling committed-order digest — in a wal.Log,
// implementing core.Checkpointer.
//
// Each Save appends one self-contained checkpoint record; recovery is
// simply the last intact record, so segments holding only superseded
// checkpoints are pruned on every rotation. Save reports the highest
// checkpoint watermark known DURABLE (fsynced), which is what the process
// may announce to peers: peers prune committed-order history behind
// announced watermarks, so announcing an unsynced checkpoint could strand
// the next incarnation — restored from an older, durable checkpoint —
// behind everyone's prune floor. With group commit on the batching
// interval the durable watermark simply lags the saved one by at most one
// interval.
package protolog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/types"
	"github.com/sof-repro/sof/internal/wal"
)

// Record kinds. kCheckpoint records are full protocol checkpoints;
// kProposal records are 8-byte proposal-counter appends (core's
// ProposalJournaler), written on every batch close so a restarted primary
// recovers a proposal floor far fresher than its last checkpoint.
const (
	kCheckpoint = 1
	kProposal   = 2
)

// maxDigestLen bounds the rolling-digest field a record may carry;
// anything longer on disk is corruption, not data.
const maxDigestLen = 1 << 10

// Options configures a Store.
type Options struct {
	// Dir is the log directory (one per order process incarnation
	// lineage).
	Dir string
	// SyncInterval is the group-commit period handed to the wal.Log; the
	// runtime passes its batching interval. Negative disables background
	// sync (tests).
	SyncInterval time.Duration
	// SegmentBytes overrides the wal segment size (0 = wal default).
	SegmentBytes int
	// Logger receives recovery and append diagnostics.
	Logger *log.Logger
	// Metrics registers the underlying wal.Log's instruments, tagged
	// wal="proto" on top of MetricsLabels. nil disables.
	Metrics       *obs.Registry
	MetricsLabels []obs.Label
}

// pendingSave is a checkpoint appended but not yet known durable.
type pendingSave struct {
	lsn wal.LSN
	wm  types.Seq
}

// Store is a durable protocol-checkpoint store. It is safe for concurrent
// use (the event loop saves, the harness syncs).
type Store struct {
	opts Options

	mu         sync.Mutex
	log        *wal.Log
	latest     core.CheckpointState
	has        bool
	pend       []pendingSave
	durable    types.Seq // highest watermark known fsynced
	durableLSN wal.LSN   // LSN of the newest checkpoint known fsynced
	buf        []byte    // scratch encode buffer, reused under mu
	propFloor  types.Seq // highest proposal counter recovered at open
	hasProp    bool
}

var (
	_ core.Checkpointer      = (*Store)(nil)
	_ core.ProposalJournaler = (*Store)(nil)
)

// Open opens (creating if needed) the checkpoint store in opts.Dir and
// recovers the previous incarnation's last checkpoint from it.
func Open(opts Options) (*Store, error) {
	l, err := wal.Open(wal.Options{
		Dir:           opts.Dir,
		SegmentBytes:  opts.SegmentBytes,
		SyncInterval:  opts.SyncInterval,
		Logger:        opts.Logger,
		Metrics:       opts.Metrics,
		MetricsLabels: append(append([]obs.Label{}, opts.MetricsLabels...), obs.L("wal", "proto")),
	})
	if err != nil {
		return nil, err
	}
	s := &Store{opts: opts, log: l}
	err = l.Replay(0, func(lsn wal.LSN, rec []byte) error {
		if len(rec) > 0 && rec[0] == kProposal {
			next, err := decodeProposal(rec)
			if err != nil {
				s.logf("record %d: %v (skipped)", lsn, err)
				return nil
			}
			if next > s.propFloor {
				s.propFloor = next
				s.hasProp = true
			}
			return nil
		}
		cp, err := decodeCheckpoint(rec)
		if err != nil {
			// A record the CRC accepted but the decoder rejects is a
			// format bug or foreign data; skip it rather than refusing the
			// whole lineage (later checkpoints supersede it anyway).
			s.logf("record %d: %v (skipped)", lsn, err)
			return nil
		}
		s.latest = cp
		s.has = true
		s.durableLSN = lsn
		return nil
	})
	if err != nil {
		_ = l.Close()
		return nil, err
	}
	if s.has {
		// Recovered state is durable by construction.
		s.durable = s.latest.DeliveredUpTo
	}
	return s, nil
}

// Save implements core.Checkpointer: append the checkpoint, prune
// segments below it, and report the highest watermark known durable.
func (s *Store) Save(cp core.CheckpointState) types.Seq {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = encodeCheckpoint(s.buf[:0], cp)
	lsn, err := s.log.Append(s.buf)
	if err != nil {
		s.logf("append: %v", err)
		return s.durable
	}
	s.latest = cp
	s.has = true
	s.pend = append(s.pend, pendingSave{lsn: lsn, wm: cp.DeliveredUpTo})
	s.advanceDurableLocked()
	// Prune only below the newest checkpoint known FSYNCED — not below
	// the record just appended. The new record may sit unsynced in the
	// active segment, or in one a rotation handed to the next group commit
	// (pruning at the new LSN would delete the only durable checkpoint); a
	// crash in that window must still recover the last durable one, or the
	// process would restart behind the watermark it already announced to
	// pruning peers.
	if s.durableLSN > 0 {
		s.log.TruncateBefore(s.durableLSN)
	}
	return s.durable
}

// advanceDurableLocked folds fsync progress into the durable watermark.
func (s *Store) advanceDurableLocked() {
	synced := s.log.SyncedLSN()
	i := 0
	for ; i < len(s.pend) && s.pend[i].lsn <= synced; i++ {
		if s.pend[i].wm > s.durable {
			s.durable = s.pend[i].wm
		}
		s.durableLSN = s.pend[i].lsn
	}
	s.pend = s.pend[i:]
}

// JournalProposal implements core.ProposalJournaler: append the primary's
// proposal counter (9 bytes on the group-commit path — far cheaper than a
// checkpoint). Proposal records carry no watermark and therefore never
// touch the durable-checkpoint accounting; durability follows at the
// log's sync cadence, which is exactly the crash window the pair-assisted
// resume closes.
func (s *Store) JournalProposal(next types.Seq) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = append(s.buf[:0], kProposal, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint64(s.buf[1:], uint64(next))
	if _, err := s.log.Append(s.buf); err != nil {
		s.logf("append proposal: %v", err)
	}
}

// ProposalFloor implements core.ProposalJournaler: the highest proposal
// counter recovered at open.
func (s *Store) ProposalFloor() (types.Seq, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.propFloor, s.hasProp
}

// decodeProposal parses one proposal record: kind 1 | nextSeq 8.
func decodeProposal(rec []byte) (types.Seq, error) {
	if len(rec) != 9 {
		return 0, fmt.Errorf("proposal record has %d bytes, want 9", len(rec))
	}
	return types.Seq(binary.BigEndian.Uint64(rec[1:])), nil
}

// Load implements core.Checkpointer.
func (s *Store) Load() (core.CheckpointState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest, s.has
}

// DurableWatermark returns the highest checkpoint watermark known
// fsynced.
func (s *Store) DurableWatermark() types.Seq {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceDurableLocked()
	return s.durable
}

// Sync forces a group commit; every saved checkpoint is durable after it
// returns.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.Sync(); err != nil {
		return err
	}
	s.advanceDurableLocked()
	return nil
}

// Stats exposes the underlying log's counters.
func (s *Store) Stats() wal.Stats { return s.log.Stats() }

// Close flushes and closes the store.
func (s *Store) Close() error { return s.log.Close() }

// Crash closes the store without flushing (test hook: checkpoints since
// the last group commit are lost, as a process death would lose them).
func (s *Store) Crash() { s.log.Crash() }

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf("protolog %s: %s", s.opts.Dir, fmt.Sprintf(format, args...))
	}
}

// encodeCheckpoint appends the wire form of cp to dst:
//
//	kind 1 | view 8 | rank 4 | deliveredUpTo 8 | nextSeq 8 |
//	digestLen 2 | digest | nEpochs 4 | nEpochs x { rank 4 | epoch 8 }
func encodeCheckpoint(dst []byte, cp core.CheckpointState) []byte {
	var b [8]byte
	put64 := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		dst = append(dst, b[:8]...)
	}
	put32 := func(v uint32) {
		binary.BigEndian.PutUint32(b[:4], v)
		dst = append(dst, b[:4]...)
	}
	dst = append(dst, kCheckpoint)
	put64(uint64(cp.View))
	put32(uint32(cp.Rank))
	put64(uint64(cp.DeliveredUpTo))
	put64(uint64(cp.NextSeq))
	binary.BigEndian.PutUint16(b[:2], uint16(len(cp.OrderDigest)))
	dst = append(dst, b[:2]...)
	dst = append(dst, cp.OrderDigest...)
	put32(uint32(len(cp.PairEpochs)))
	for r, e := range cp.PairEpochs {
		put32(uint32(r))
		put64(e)
	}
	return dst
}

// decodeCheckpoint parses one checkpoint record. It must be total: record
// bytes reach it straight from disk (CRC-checked, but the format itself
// is fuzzed).
func decodeCheckpoint(rec []byte) (core.CheckpointState, error) {
	var cp core.CheckpointState
	short := errors.New("truncated checkpoint")
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
	if len(r) < 1 {
		return cp, short
	}
	if r[0] != kCheckpoint {
		return cp, fmt.Errorf("unknown record kind %d", r[0])
	}
	r = r[1:]
	view, ok1 := u64()
	rank, ok2 := u32()
	delivered, ok3 := u64()
	nextSeq, ok4 := u64()
	if !(ok1 && ok2 && ok3 && ok4) || len(r) < 2 {
		return cp, short
	}
	dn := int(binary.BigEndian.Uint16(r))
	r = r[2:]
	if dn > maxDigestLen {
		return cp, fmt.Errorf("implausible digest length %d", dn)
	}
	if len(r) < dn {
		return cp, short
	}
	cp.View = types.View(view)
	cp.Rank = types.Rank(rank)
	cp.DeliveredUpTo = types.Seq(delivered)
	cp.NextSeq = types.Seq(nextSeq)
	if dn > 0 {
		cp.OrderDigest = append([]byte(nil), r[:dn]...)
	}
	r = r[dn:]
	n, ok := u32()
	if !ok {
		return cp, short
	}
	if n > uint32(len(rec)) { // epochs cannot outnumber record bytes
		return cp, fmt.Errorf("implausible epoch count %d", n)
	}
	if n > 0 {
		cp.PairEpochs = make(map[types.Rank]uint64, n)
	}
	for i := uint32(0); i < n; i++ {
		rk, ok1 := u32()
		ep, ok2 := u64()
		if !ok1 || !ok2 {
			return cp, short
		}
		cp.PairEpochs[types.Rank(rk)] = ep
	}
	if len(r) != 0 {
		return cp, errors.New("trailing bytes after checkpoint")
	}
	return cp, nil
}
