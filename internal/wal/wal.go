package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/sof-repro/sof/internal/obs"
)

// LSN is the 1-based position of a record in the log's append stream. 0
// means "no record". LSNs are assigned densely at Append and survive
// restarts: the i-th record ever appended has LSN i whether or not its
// segment has since been pruned.
type LSN uint64

const (
	// segMagic opens every segment file, followed by the segment's first
	// LSN; a file that does not start with it is not replayed.
	segMagic = uint64(0x534f_4657_414c_3031) // "SOFWAL01"
	// segHeaderLen is magic (8) + first LSN (8).
	segHeaderLen = 16
	// recHeaderLen is payload length (4) + CRC-32C (4).
	recHeaderLen = 8
	// MaxRecord bounds one record's payload, matching the transport's
	// frame bound: anything larger on disk is corruption, not data.
	MaxRecord = 16 << 20
	// DefaultSegmentBytes is the rotation threshold when Options leaves it
	// zero.
	DefaultSegmentBytes = 4 << 20
	// DefaultSyncInterval is the group-commit interval when Options leaves
	// it zero.
	DefaultSyncInterval = 10 * time.Millisecond
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Log.
type Options struct {
	// Dir is the directory holding the segment files; it is created if
	// missing. One Log owns one directory.
	Dir string
	// SegmentBytes is the rotation threshold: a record that would push the
	// active segment past it opens a new segment (default
	// DefaultSegmentBytes). Records larger than the threshold still fit —
	// a segment always holds at least one record.
	SegmentBytes int
	// SyncInterval is the group-commit period: appends are buffered and a
	// background flusher fsyncs every interval while there is unsynced
	// data (default DefaultSyncInterval). Negative disables the
	// background flusher entirely — only explicit Sync and Close calls
	// fsync, the segments rotation handed over included — which tests use
	// to control durability points exactly.
	SyncInterval time.Duration
	// Logger receives recovery diagnostics (torn tails truncated, orphan
	// segments dropped). nil discards them.
	Logger *log.Logger
	// Metrics, when non-nil, registers the log's instruments (fsync
	// latency histogram, segment/LSN gauges, append/sync counters) under
	// MetricsLabels. Counters and gauges are func-backed over the log's
	// existing mutex-guarded state, read only at scrape time; only the
	// fsync histogram touches the sync path (two atomic ops per fsync).
	Metrics       *obs.Registry
	MetricsLabels []obs.Label
}

// Stats is a point-in-time snapshot of a Log's counters.
type Stats struct {
	// Appended counts records appended this incarnation.
	Appended uint64
	// Syncs counts fsync batches (group commits).
	Syncs uint64
	// Recovered is how many records the Open scan found intact.
	Recovered uint64
	// TruncatedBytes is how many torn-tail bytes Open discarded.
	TruncatedBytes int64
	// DroppedSegments counts segments discarded at Open because they
	// followed a torn or discontinuous segment.
	DroppedSegments int
	// PrunedSegments counts segments removed by TruncateBefore.
	PrunedSegments int
	// Segments is the current number of live segment files.
	Segments int
}

// segment describes one on-disk segment file.
type segment struct {
	path  string
	first LSN // LSN of the segment's first record
	last  LSN // LSN of its last record; first-1 when empty
	bytes int64
}

// Log is an append-only, segmented, CRC-checked record log with batched
// fsync. Appends are buffered in user space and reach disk on the next
// group commit (the background flusher's tick, or an explicit Sync); a
// crash loses at most the records appended since the last sync, and a torn
// tail from a mid-write crash is truncated away on the next Open, so the
// recovered log is always a clean prefix of what was appended.
//
// Two locks split the work. mu, the append lock, guards the buffer and the
// segment list; a group commit holds it only to flush the buffer into the
// OS and to publish what it made durable. syncMu serialises group commits
// and is the only lock held across an fsync, so an Append never waits on
// the disk. Lock order: syncMu before mu.
//
// The first write or fsync error is sticky: Append, Sync and Close return
// it from then on, SyncedLSN never moves again and no fsync is retried (on
// Linux a failed fsync may drop the dirty pages and report it only once).
//
// All methods are safe for concurrent use.
type Log struct {
	opts Options

	mu       sync.Mutex
	segs     []segment // closed segments, ascending; active segment is last
	f        *os.File  // active segment file
	w        *bufio.Writer
	retired  []*os.File // rotated-out segments, flushed; the next group commit fsyncs and closes them
	dirDirty bool       // a segment was created since the last group commit
	next     LSN        // LSN the next Append assigns
	synced   LSN        // highest LSN known durable
	failed   error      // first write or fsync error; sticky
	closed   bool
	crashing bool
	stats    Stats
	hdrBuf   [recHeaderLen]byte
	fsyncH   *obs.Histogram // nil-safe: no-op when Options.Metrics was nil

	syncMu sync.Mutex
	fsync  func(*os.File) error // every fsync, files and directory; fsyncFile at Open

	flusherStop chan struct{}
	flusherDone chan struct{}
}

// fsyncFile is the fsync a Log opened from now on uses; tests replace it
// (export_test.go) to block or fail fsyncs.
var fsyncFile = (*os.File).Sync

// fsyncTurn lets one group commit at a time in the process fsync. A
// goroutine blocked in fsync keeps its P (one of GOMAXPROCS) until the
// runtime's monitor thread takes it back, which can take milliseconds; the
// logs of one process (an in-process cluster has two per node) commit on
// the same interval, so their concurrent fsyncs could hold every P at once
// and stall every goroutine, appenders and event loops included. Taking
// turns leaves at most one P in an fsync; appends never wait for it.
var fsyncTurn sync.Mutex

// Open opens (creating if needed) the log in opts.Dir, scanning existing
// segments and truncating any torn tail so the log ends at the last intact
// record. The returned log is ready for Append; use Replay to read the
// recovered records.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncInterval == 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opts: opts, fsync: fsyncFile}
	if err := l.scan(); err != nil {
		return nil, err
	}
	if err := l.openActive(); err != nil {
		return nil, err
	}
	if opts.SyncInterval > 0 {
		l.flusherStop = make(chan struct{})
		l.flusherDone = make(chan struct{})
		go l.flusher()
	}
	l.registerMetrics()
	return l, nil
}

// registerMetrics attaches the log's instruments to Options.Metrics.
// Everything but the fsync histogram is func-backed over the log's
// mutex-guarded state, so the append path pays nothing.
func (l *Log) registerMetrics() {
	r, labels := l.opts.Metrics, l.opts.MetricsLabels
	if r == nil {
		return
	}
	l.fsyncH = r.Histogram("sof_wal_fsync_seconds",
		"Latency of WAL fsync batches (group commits).",
		obs.DefBuckets(), labels...)
	r.CounterFunc("sof_wal_appends_total",
		"Records appended to the WAL this incarnation.",
		func() uint64 { return l.Stats().Appended }, labels...)
	r.CounterFunc("sof_wal_syncs_total",
		"WAL fsync batches (group commits).",
		func() uint64 { return l.Stats().Syncs }, labels...)
	r.GaugeFunc("sof_wal_segments",
		"Live WAL segment files on disk.",
		func() float64 { return float64(l.Stats().Segments) }, labels...)
	r.GaugeFunc("sof_wal_synced_lsn",
		"Highest WAL LSN known durable.",
		func() float64 { return float64(l.SyncedLSN()) }, labels...)
	r.GaugeFunc("sof_wal_unsynced_records",
		"Appended records not yet fsynced (durability lag).",
		func() float64 {
			l.mu.Lock()
			lag := l.next - 1 - l.synced
			l.mu.Unlock()
			return float64(lag)
		}, labels...)
}

func (l *Log) logf(format string, args ...any) {
	if l.opts.Logger != nil {
		l.opts.Logger.Printf("wal %s: %s", l.opts.Dir, fmt.Sprintf(format, args...))
	}
}

// scan reads the segment directory, verifies every record and truncates
// the log at the first sign of a torn write: a short or CRC-failing record
// ends its segment there, and any later segment (a crash between a
// rotation and the group commit that syncs it can leave one) is dropped,
// as is a segment that leaves an LSN gap, so recovery always yields a
// clean prefix.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".seg" {
			continue
		}
		segs = append(segs, segment{path: filepath.Join(l.opts.Dir, e.Name())})
	}
	// Order by the first LSN encoded in the filename; files whose names do
	// not parse are ignored (never deleted — they are not ours).
	parsed := segs[:0]
	for _, s := range segs {
		var first uint64
		if _, err := fmt.Sscanf(filepath.Base(s.path), "%016x.seg", &first); err == nil {
			s.first = LSN(first)
			parsed = append(parsed, s)
		} else {
			l.logf("ignoring unrecognised file %s", filepath.Base(s.path))
		}
	}
	segs = parsed
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	next := LSN(1)
	var live []segment
	torn := false
	for i := range segs {
		s := &segs[i]
		if torn || (len(live) > 0 && s.first != next) {
			// Orphan: follows a torn segment or leaves an LSN gap. Keep
			// the prefix property by dropping it.
			l.logf("dropping orphan segment %s", filepath.Base(s.path))
			_ = os.Remove(s.path)
			l.stats.DroppedSegments++
			continue
		}
		n, size, ok, err := l.scanSegment(s)
		if err != nil {
			return err
		}
		if len(live) == 0 {
			// The first live segment may start beyond LSN 1 (older ones
			// were pruned); later segments were contiguity-checked above.
			next = s.first
		}
		s.last = s.first + LSN(n) - 1
		s.bytes = size
		next = s.last + 1
		live = append(live, *s)
		l.stats.Recovered += n
		if !ok {
			torn = true
		}
	}
	l.segs = live
	l.next = next
	l.synced = next - 1
	return nil
}

// scanSegment verifies one segment, truncating it at the first torn or
// corrupt record. It returns the number of intact records, the resulting
// file size, and ok=false if a truncation happened.
func (l *Log) scanSegment(s *segment) (records uint64, size int64, ok bool, err error) {
	f, err := os.OpenFile(s.path, os.O_RDWR, 0)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil ||
		binary.BigEndian.Uint64(hdr[:8]) != segMagic ||
		LSN(binary.BigEndian.Uint64(hdr[8:])) != s.first {
		// Headerless or mislabelled segment: nothing in it is trustworthy.
		l.logf("truncating segment %s: bad header", filepath.Base(s.path))
		if err := f.Truncate(0); err != nil {
			return 0, 0, false, fmt.Errorf("wal: %w", err)
		}
		// Rewrite a clean header so the segment can keep serving as the
		// active one.
		if err := writeSegHeader(f, s.first); err != nil {
			return 0, 0, false, fmt.Errorf("wal: %w", err)
		}
		return 0, segHeaderLen, false, nil
	}
	offset := int64(segHeaderLen)
	buf := make([]byte, 0, 4096)
	for {
		var rh [recHeaderLen]byte
		if _, err := io.ReadFull(br, rh[:]); err != nil {
			if err == io.EOF {
				return records, offset, true, nil
			}
			break // short header: torn tail
		}
		n := binary.BigEndian.Uint32(rh[:4])
		if n == 0 || n > MaxRecord {
			break
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf); err != nil {
			break // short payload: torn tail
		}
		if crc32.Checksum(buf, crcTable) != binary.BigEndian.Uint32(rh[4:]) {
			break // corrupt payload
		}
		offset += recHeaderLen + int64(n)
		records++
	}
	truncated := int64(0)
	if fi, err := f.Stat(); err == nil {
		truncated = fi.Size() - offset
	}
	l.logf("truncating %d torn byte(s) from segment %s after %d intact record(s)",
		truncated, filepath.Base(s.path), records)
	l.stats.TruncatedBytes += truncated
	if err := f.Truncate(offset); err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	if err := l.fsync(f); err != nil {
		return 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	return records, offset, false, nil
}

func writeSegHeader(f *os.File, first LSN) error {
	var hdr [segHeaderLen]byte
	binary.BigEndian.PutUint64(hdr[:8], segMagic)
	binary.BigEndian.PutUint64(hdr[8:], uint64(first))
	_, err := f.Write(hdr[:])
	return err
}

// openActive opens the last live segment for appending (creating the first
// segment of an empty log), called with no lock needed (Open only).
func (l *Log) openActive() error {
	var f *os.File
	var err error
	if len(l.segs) == 0 {
		f, err = l.createSegment(l.next)
	} else {
		f, err = os.OpenFile(l.segs[len(l.segs)-1].path, os.O_WRONLY|os.O_APPEND, 0)
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	return nil
}

// createSegment creates the segment whose first record will be first and
// writes its header, without an fsync: the next group commit syncs the
// file and the directory entry before SyncedLSN passes any record in it.
// Called with l.mu held (or before the log is shared).
func (l *Log) createSegment(first LSN) (*os.File, error) {
	path := filepath.Join(l.opts.Dir, fmt.Sprintf("%016x.seg", uint64(first)))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := writeSegHeader(f, first); err != nil {
		_ = f.Close()
		return nil, err
	}
	l.segs = append(l.segs, segment{path: path, first: first, last: first - 1, bytes: segHeaderLen})
	l.dirDirty = true
	return f, nil
}

// Append buffers one record and returns its LSN. The record is durable
// only after the next group commit (background flush or explicit Sync).
// Append never waits on the disk: it holds only the append lock, which no
// fsync is made under, and a rotation it triggers hands the old segment to
// the next group commit instead of syncing it.
func (l *Log) Append(rec []byte) (LSN, error) {
	if len(rec) == 0 || len(rec) > MaxRecord {
		return 0, fmt.Errorf("wal: record length %d outside (0, %d]", len(rec), MaxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	if l.failed != nil {
		return 0, l.failed
	}
	active := &l.segs[len(l.segs)-1]
	if active.bytes > segHeaderLen && active.bytes+recHeaderLen+int64(len(rec)) > int64(l.opts.SegmentBytes) {
		if err := l.rotate(); err != nil {
			return 0, err
		}
		active = &l.segs[len(l.segs)-1]
	}
	binary.BigEndian.PutUint32(l.hdrBuf[:4], uint32(len(rec)))
	binary.BigEndian.PutUint32(l.hdrBuf[4:], crc32.Checksum(rec, crcTable))
	if _, err := l.w.Write(l.hdrBuf[:]); err != nil {
		return 0, l.failLocked(err)
	}
	if _, err := l.w.Write(rec); err != nil {
		return 0, l.failLocked(err)
	}
	lsn := l.next
	l.next++
	active.last = lsn
	active.bytes += recHeaderLen + int64(len(rec))
	l.stats.Appended++
	return lsn, nil
}

// rotate flushes the active segment's buffer into the OS, hands its file
// to the next group commit to fsync and close, and opens the next segment
// with the same bufio.Writer. Nothing here waits on the disk. Called with
// l.mu held.
func (l *Log) rotate() error {
	if err := l.w.Flush(); err != nil {
		return l.failLocked(err)
	}
	f, err := l.createSegment(l.next)
	if err != nil {
		return l.failLocked(err)
	}
	l.retired = append(l.retired, l.f)
	l.f = f
	l.w.Reset(f)
	return nil
}

// failLocked makes err the log's sticky failure unless one is already
// recorded, and returns the recorded one. Called with l.mu held.
func (l *Log) failLocked(err error) error {
	if l.failed == nil {
		l.failed = fmt.Errorf("wal: %w", err)
	}
	return l.failed
}

// Sync forces a group commit: everything appended before it is flushed and
// fsynced before it returns.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return fmt.Errorf("wal: log is closed")
	}
	return l.commit()
}

// commit is one group commit. Under l.mu it only flushes the buffer and
// takes the rotated-out files; the fsyncs (those files, the active one, and
// the directory when a segment was created) run under l.syncMu and the
// process's fsyncTurn, and SyncedLSN moves to the flushed LSN only once
// all of them succeeded. A failure is sticky and nothing is retried.
// Called with l.syncMu held.
func (l *Log) commit() error {
	l.mu.Lock()
	if l.failed != nil {
		l.mu.Unlock()
		return l.failed
	}
	target := l.next - 1
	if target == l.synced && len(l.retired) == 0 && !l.dirDirty {
		l.mu.Unlock()
		return nil
	}
	if err := l.w.Flush(); err != nil {
		err = l.failLocked(err)
		l.mu.Unlock()
		return err
	}
	retired, active, dir := l.retired, l.f, l.dirDirty
	l.retired, l.dirDirty = nil, false
	l.mu.Unlock()

	fsyncTurn.Lock()
	var start time.Time
	if l.fsyncH != nil {
		start = time.Now()
	}
	err := l.syncFiles(retired, active, dir)
	if err == nil && l.fsyncH != nil {
		l.fsyncH.ObserveDuration(time.Since(start))
	}
	fsyncTurn.Unlock()

	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		return l.failLocked(err)
	}
	l.synced = target
	l.stats.Syncs++
	return nil
}

// syncFiles fsyncs and closes the rotated-out files, then fsyncs the active
// file and, when dir is set, the directory. It stops fsyncing at the first
// error but still closes every retired file. Called with l.syncMu held.
func (l *Log) syncFiles(retired []*os.File, active *os.File, dir bool) error {
	var err error
	for _, f := range retired {
		if err == nil {
			err = l.fsync(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = l.fsync(active)
	}
	if err == nil && dir {
		var d *os.File
		if d, err = os.Open(l.opts.Dir); err == nil {
			err = l.fsync(d)
			_ = d.Close()
		}
	}
	return err
}

// flusher is the group-commit loop: one commit per SyncInterval while
// there is unsynced data. Appends never wait for it; it stops for good at
// the first failed commit.
func (l *Log) flusher() {
	defer close(l.flusherDone)
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.syncMu.Lock()
			err := l.commit()
			l.syncMu.Unlock()
			if err != nil {
				l.logf("group commit failed; no fsync will be retried: %v", err)
				return
			}
		case <-l.flusherStop:
			return
		}
	}
}

// TruncateBefore removes whole segments every record of which is below
// lsn. The active segment is never removed, so the log always retains its
// tail; partial segments are kept (pruning is a space bound, not an exact
// cut). The segments leave the log under the append lock; the unlinks run
// after it is released.
func (l *Log) TruncateBefore(lsn LSN) {
	l.mu.Lock()
	n := 0
	for n < len(l.segs)-1 && l.segs[n].last < lsn {
		n++
	}
	doomed := l.segs[:n:n] // appends to l.segs never write below n
	l.segs = l.segs[n:]
	l.stats.PrunedSegments += n
	l.mu.Unlock()
	for _, s := range doomed {
		if err := os.Remove(s.path); err != nil {
			l.logf("pruning %s: %v", filepath.Base(s.path), err)
		}
	}
}

// PrunableSegments reports how many whole segments TruncateBefore(lsn)
// would remove, so callers can avoid checkpoint work when pruning would
// reclaim nothing.
func (l *Log) PrunableSegments(lsn LSN) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for i := 0; i < len(l.segs)-1 && l.segs[i].last < lsn; i++ {
		n++
	}
	return n
}

// OldestLSN returns the LSN of the oldest record still on disk (next
// assigned LSN if the log is empty).
func (l *Log) OldestLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.segs {
		if s.last >= s.first {
			return s.first
		}
	}
	return l.next
}

// NextLSN returns the LSN the next Append will assign.
func (l *Log) NextLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// SyncedLSN returns the highest LSN known durable: records at or below it
// have been fsynced and survive a crash. Callers that must only act on
// durable state (e.g. announcing a checkpoint watermark to peers who will
// prune history behind it) compare their record's LSN against it.
func (l *Log) SyncedLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.Segments = len(l.segs)
	return st
}

// Replay invokes fn for every record with LSN >= from, in order, reading
// from disk (buffered appends are flushed first so the replay sees them).
// fn returning an error stops the replay and returns that error. Replay
// may run concurrently with appends; records appended after it starts are
// not guaranteed to be visited.
func (l *Log) Replay(from LSN, fn func(lsn LSN, rec []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("wal: log is closed")
	}
	if err := l.w.Flush(); err != nil {
		err = l.failLocked(err)
		l.mu.Unlock()
		return err
	}
	segs := make([]segment, len(l.segs))
	copy(segs, l.segs)
	l.mu.Unlock()

	buf := make([]byte, 0, 4096)
	for _, s := range segs {
		if s.last < from || s.last < s.first {
			continue
		}
		if err := replaySegment(s, from, &buf, fn); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment reads one segment's records, invoking fn for those >= from.
// The record slice passed to fn is reused between calls; fn must copy what
// it retains.
func replaySegment(s segment, from LSN, buf *[]byte, fn func(lsn LSN, rec []byte) error) error {
	f, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("wal: replaying %s: %w", filepath.Base(s.path), err)
	}
	for lsn := s.first; lsn <= s.last; lsn++ {
		var rh [recHeaderLen]byte
		if _, err := io.ReadFull(br, rh[:]); err != nil {
			return fmt.Errorf("wal: replaying %s at %d: %w", filepath.Base(s.path), lsn, err)
		}
		n := binary.BigEndian.Uint32(rh[:4])
		if n == 0 || n > MaxRecord {
			return fmt.Errorf("wal: replaying %s at %d: bad record length %d", filepath.Base(s.path), lsn, n)
		}
		if cap(*buf) < int(n) {
			*buf = make([]byte, n)
		}
		rec := (*buf)[:n]
		if _, err := io.ReadFull(br, rec); err != nil {
			return fmt.Errorf("wal: replaying %s at %d: %w", filepath.Base(s.path), lsn, err)
		}
		if crc32.Checksum(rec, crcTable) != binary.BigEndian.Uint32(rh[4:]) {
			return fmt.Errorf("wal: replaying %s at %d: CRC mismatch", filepath.Base(s.path), lsn)
		}
		if lsn < from {
			continue
		}
		if err := fn(lsn, rec); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the background flusher, makes everything appended durable
// with a last group commit and closes the segment files. The log is
// unusable afterwards; after a failure Close returns the sticky error and
// fsyncs nothing.
func (l *Log) Close() error {
	l.stopFlusher()
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	err := l.commit()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closeFilesLocked()
	return err
}

// Crash simulates a process crash for tests: the log is closed WITHOUT
// flushing user-space buffers, so records appended since the last group
// commit are lost exactly as they would be when the process dies (what a
// rotation already flushed stays with the OS, as it would).
func (l *Log) Crash() {
	l.stopFlusher()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	// Drop the bufio contents on the floor; close the fds without syncing.
	l.closeFilesLocked()
}

// closeFilesLocked closes the active segment and any rotated-out one no
// group commit took, without syncing. Called with l.mu held.
func (l *Log) closeFilesLocked() {
	for _, f := range l.retired {
		_ = f.Close()
	}
	l.retired = nil
	_ = l.f.Close()
}

func (l *Log) stopFlusher() {
	l.mu.Lock()
	stop, done := l.flusherStop, l.flusherDone
	if l.crashing || stop == nil {
		l.mu.Unlock()
		return
	}
	l.crashing = true
	l.mu.Unlock()
	close(stop)
	<-done
}
