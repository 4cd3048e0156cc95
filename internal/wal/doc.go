// Package wal is the durable-node-state subsystem's storage core: a
// segmented, CRC-checked, group-committed write-ahead log.
//
// A Log owns one directory of segment files (%016x.seg, named by the LSN
// of their first record). Each segment opens with a 16-byte header (magic
// + first LSN) followed by records framed as
//
//	length uint32 | crc32c uint32 | payload
//
// Appends are buffered in user space and reach disk on the next group
// commit — a background fsync every Options.SyncInterval (the runtime
// passes its batching interval, so durability costs one fsync per batch
// wave, not per record) or an explicit Sync. The rule that keeps the disk
// off the hot path: no fsync is made under the append lock. A group
// commit holds that lock only to flush the user-space buffer into the OS,
// then fsyncs under a lock of its own while appends go on; a rotation
// flushes the full segment and hands its file to the next group commit
// (which fsyncs and closes it, and fsyncs the directory entry of the new
// segment); pruning unlinks outside the lock. The logs of one process
// take turns to fsync, so fsyncs, each of which keeps its goroutine's P
// until the runtime takes it back, never hold more than one P between
// them. SyncedLSN, and every durable watermark built on it, passes a
// record only once every file holding records up to it, and the directory
// entry of every segment created before it, is fsynced. The crash-loss
// window is bounded by the sync interval.
//
// The first write or fsync error is sticky: Append, Sync and Close return
// it from then on, SyncedLSN never moves again and no fsync is retried,
// because on Linux a failed fsync may drop the dirty pages and report the
// loss only once (Rebello et al., USENIX ATC 2020).
//
// Recovery (Open) scans the segments in LSN order and truncates the log
// at the first torn or corrupt record: a short header, a short payload, a
// CRC mismatch or an impossible length ends the segment there, and any
// segment after the tear, or after an LSN gap, is dropped (a crash between
// a rotation and the next group commit can leave either). The recovered
// log is always a clean prefix of what was appended — no holes, no
// reordering, no invented records (FuzzRecovery pins this property under
// random truncation and byte flips).
//
// Space is reclaimed by TruncateBefore(lsn), which unlinks whole segments
// every record of which lies below the caller's watermark; rotation at
// Options.SegmentBytes keeps segments small enough for pruning to track
// the watermark usefully.
//
// Two higher-level stores build on the Log, both holding a node's own
// state: sessionlog (the transport session layer's
// sealed-but-unacknowledged frames, epochs and delivery watermarks,
// pruned at the acknowledgement watermark) and protolog (an order
// process's protocol checkpoints — view, pair epochs, committed
// watermark, committed-order digest — where the last intact record is the
// recovery point and superseded segments are pruned on rotation). The
// measurement recorder keeps nothing on disk.
package wal
