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
// wave, not per record) or an explicit Sync. The hot path therefore never
// waits on the disk; the crash-loss window is bounded by the sync
// interval.
//
// Recovery (Open) scans the segments in LSN order and truncates the log
// at the first torn or corrupt record: a short header, a short payload, a
// CRC mismatch or an impossible length ends the segment there, and any
// segment after the tear is dropped. The recovered log is always a clean
// prefix of what was appended — no holes, no reordering, no invented
// records (FuzzRecovery pins this property under random truncation and
// byte flips).
//
// Space is reclaimed by TruncateBefore(lsn), which unlinks whole segments
// every record of which lies below the caller's watermark; rotation at
// Options.SegmentBytes keeps segments small enough for pruning to track
// the watermark usefully.
//
// Three higher-level stores build on the Log: sessionlog (the transport
// session layer's sealed-but-unacknowledged frames, epochs and delivery
// watermarks, pruned at the acknowledgement watermark), commitlog (the
// measurement recorder's commit stream, served back to cursors that have
// fallen below the in-memory retention ring, pruned at the recorder's
// prune watermark) and protolog (an order process's protocol checkpoints —
// view, pair epochs, committed watermark, committed-order digest — where
// the last intact record is the recovery point and superseded segments
// are pruned on rotation).
package wal
