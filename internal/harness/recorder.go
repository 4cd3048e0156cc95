package harness

import (
	"sync"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/stats"
	"github.com/sof-repro/sof/internal/types"
)

// batchKey identifies one ordered subject across processes.
type batchKey struct {
	view  types.View
	first types.Seq
}

// commitRing retains the most recent events of an append-only stream,
// addressable by absolute position: the i-th event ever appended has
// position i whether or not it is still retained. Readers follow the
// stream with cursors (see Recorder.CommitsSince), so steady-state reads
// cost O(new events), never O(history).
type commitRing struct {
	buf   []core.CommitEvent
	limit int    // max retained events; 0 = unbounded
	head  int    // index in buf of the oldest retained event
	total uint64 // events ever appended
	// out is the unhanded rest of the chunk since carves its results
	// from: a result is capacity-capped and never rewritten, so a reader
	// may keep it, and a poll costs a share of a chunk.
	out []core.CommitEvent
}

// sinceChunk is how many events a chunk of since's results holds.
const sinceChunk = 256

func (r *commitRing) append(ev core.CommitEvent) {
	switch {
	case r.limit <= 0 || len(r.buf) < r.limit:
		r.buf = append(r.buf, ev)
	default:
		r.buf[r.head] = ev
		r.head++
		if r.head == len(r.buf) {
			r.head = 0
		}
	}
	r.total++
}

// oldest returns the absolute position of the oldest retained event.
func (r *commitRing) oldest() uint64 { return r.total - uint64(len(r.buf)) }

// since copies out the events at positions [cursor, total) that are still
// retained. dropped counts requested events already evicted from the ring.
func (r *commitRing) since(cursor uint64) (events []core.CommitEvent, next uint64, dropped uint64) {
	next = r.total
	if cursor >= r.total {
		return nil, next, 0
	}
	oldest := r.oldest()
	if cursor < oldest {
		dropped = oldest - cursor
		cursor = oldest
	}
	n := int(r.total - cursor)
	if n > len(r.out) {
		r.out = make([]core.CommitEvent, max(n, sinceChunk))
	}
	events, r.out = r.out[:0:n], r.out[n:]
	for p := cursor; p < r.total; p++ {
		idx := r.head + int(p-oldest)
		if idx >= len(r.buf) {
			idx -= len(r.buf)
		}
		events = append(events, r.buf[idx])
	}
	return events, next, dropped
}

// Recorder is the thread-safe event sink shared by every process's hooks.
type Recorder struct {
	mu sync.Mutex

	// batchedAt holds each batch's formation time until its first
	// commit stops the latency clock, so it never outgrows the batches in
	// flight; batches counts those first commits.
	batchedAt map[batchKey]time.Time
	batches   int
	// Proposer-pipeline gauges (see core.BatchEvent).
	maxInflight   int
	sizeTriggered int
	latencies     stats.Sampler

	// commitsPerNode counts committed request entries per process,
	// within [windowStart, windowEnd] when set.
	commitsPerNode map[types.NodeID]int
	windowStart    time.Time
	windowSet      bool

	failSignals []core.FailSignalEvent
	installs    []core.InstallEvent
	tuples      []core.InstallEvent
	recoveries  []core.InstallEvent

	// keepCommits retains commit events for replay (ring-bounded); the
	// committed-request index and commit notifications are maintained
	// regardless, so AwaitCommit-style checks are always O(1).
	//
	// committed maps each request to the stream position of the event
	// that first committed it, so PruneCommittedBelow can truncate the
	// index by watermark. commitLog mirrors the index in commit order
	// (head-indexed FIFO) so pruning costs O(entries pruned); it is only
	// maintained when the ring is bounded, the one case pruning can act.
	keepCommits bool
	commits     commitRing
	committed   map[message.ReqID]uint64
	commitLog   []committedAt
	logHead     int
	waiters     map[message.ReqID][]chan struct{}
}

// committedAt is one commitLog entry: the request and the stream position
// of its first commit.
type committedAt struct {
	pos uint64
	id  message.ReqID
}

// closedCommit is returned by CommitNotify for already-committed requests.
var closedCommit = func() chan struct{} { ch := make(chan struct{}); close(ch); return ch }()

// NewRecorder returns an empty recorder. keepCommits retains commit events
// for cursor readers (bench/ and tests); retain bounds how many
// are kept (0 = unlimited), so long benchmark runs stop growing without
// limit.
func NewRecorder(keepCommits bool, retain int) *Recorder {
	return &Recorder{
		batchedAt:      make(map[batchKey]time.Time),
		commitsPerNode: make(map[types.NodeID]int),
		keepCommits:    keepCommits,
		commits:        commitRing{limit: retain},
		committed:      make(map[message.ReqID]uint64),
		waiters:        make(map[message.ReqID][]chan struct{}),
	}
}

// StartWindow begins the measurement window for throughput counting and
// latency sampling (events before it are warm-up and are discarded).
func (r *Recorder) StartWindow(at time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.windowStart = at
	r.windowSet = true
	r.commitsPerNode = make(map[types.NodeID]int)
	r.latencies.Reset()
}

// OnBatched records batch formation at the coordinator (the latency clock
// start: "the instance the request is batched by the coordinator").
func (r *Recorder) OnBatched(ev core.BatchEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := batchKey{ev.View, ev.FirstSeq}
	if _, dup := r.batchedAt[k]; !dup {
		r.batchedAt[k] = ev.At
	}
	if ev.Inflight > r.maxInflight {
		r.maxInflight = ev.Inflight
	}
	if ev.SizeTriggered {
		r.sizeTriggered++
	}
}

// MaxInflight returns the widest proposal-window occupancy any batch was
// formed at (1 under the interval-paced proposer; >1 proves pipelining
// actually overlapped proposals).
func (r *Recorder) MaxInflight() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.maxInflight
}

// SizeTriggeredBatches returns how many batches the pool's size trigger
// closed (as opposed to the interval timer).
func (r *Recorder) SizeTriggeredBatches() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sizeTriggered
}

// OnCommit records a commit at one process; the first process to commit a
// batch stops that batch's latency clock.
func (r *Recorder) OnCommit(ev core.CommitEvent) {
	r.mu.Lock()
	pos := r.commits.total // stream position this event gets if retained
	if r.keepCommits {
		r.commits.append(ev)
	}
	prunable := r.keepCommits && r.commits.limit > 0
	for i := range ev.Entries {
		id := ev.Entries[i].Req
		if _, dup := r.committed[id]; dup {
			continue
		}
		r.committed[id] = pos
		if prunable {
			r.commitLog = append(r.commitLog, committedAt{pos: pos, id: id})
		}
		if chs, ok := r.waiters[id]; ok {
			for _, ch := range chs {
				close(ch)
			}
			delete(r.waiters, id)
		}
	}
	if !r.windowSet || !ev.At.Before(r.windowStart) {
		r.commitsPerNode[ev.Node] += len(ev.Entries)
	}
	if ev.Kind != message.SubjectBatch {
		r.mu.Unlock()
		return
	}
	k := batchKey{ev.View, ev.FirstSeq}
	start, known := r.batchedAt[k]
	if !known {
		r.mu.Unlock()
		return
	}
	delete(r.batchedAt, k)
	r.batches++
	if !r.windowSet || !start.Before(r.windowStart) {
		r.latencies.Add(ev.At.Sub(start))
	}
	r.mu.Unlock()
}

// Committed reports whether the request has been committed at some process.
// It is O(1) and remains correct after commit events are evicted from the
// retention ring, until the index entry itself is truncated by
// PruneCommittedBelow (which only happens once the caller's cursor has
// passed the request's commit).
func (r *Recorder) Committed(id message.ReqID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.committed[id]
	return ok
}

// CommittedIndexSize reports how many requests the committed index
// currently holds (watermark-regression tests use it).
func (r *Recorder) CommittedIndexSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.committed)
}

// PruneCommittedBelow truncates committed-index entries whose first commit
// lies below both cursor and the oldest event still retained in the ring,
// returning how many entries were removed. Callers pass the lowest cursor
// of their readers (the public API, whose replicas execute on commit,
// passes the end of the stream), so an entry is only dropped once it can
// neither be replayed (evicted from the ring) nor is still awaited (every
// reader has passed it). With an unbounded ring (retention
// 0) the oldest retained position is 0 and the call is a no-op, so the
// full index — and exact Committed answers for all history — are kept
// unless the operator opted into bounded retention.
func (r *Recorder) PruneCommittedBelow(cursor uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := cursor
	if o := r.commits.oldest(); o < w {
		w = o
	}
	pruned := 0
	for r.logHead < len(r.commitLog) && r.commitLog[r.logHead].pos < w {
		e := r.commitLog[r.logHead]
		// A request re-committed after an earlier prune re-enters the
		// index at a newer position; only remove the entry the log line
		// describes.
		if p, ok := r.committed[e.id]; ok && p == e.pos {
			delete(r.committed, e.id)
			pruned++
		}
		r.logHead++
	}
	if r.logHead > 0 && r.logHead*2 >= len(r.commitLog) {
		n := copy(r.commitLog, r.commitLog[r.logHead:])
		r.commitLog = r.commitLog[:n]
		r.logHead = 0
	}
	return pruned
}

// CommitNotify returns a channel that is closed once the request commits at
// some process (immediately-closed if it already has). Live-mode waiters
// block on it instead of polling.
func (r *Recorder) CommitNotify(id message.ReqID) <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.committed[id]; ok {
		return closedCommit
	}
	ch := make(chan struct{})
	r.waiters[id] = append(r.waiters[id], ch)
	return ch
}

// CancelNotify deregisters a channel obtained from CommitNotify whose
// waiter gave up (timed out); abandoning the channel instead would leak a
// waiters entry per never-committed request.
func (r *Recorder) CancelNotify(id message.ReqID, ch <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	chs := r.waiters[id]
	for i, c := range chs {
		if c == ch {
			chs[i] = chs[len(chs)-1]
			chs = chs[:len(chs)-1]
			break
		}
	}
	if len(chs) == 0 {
		delete(r.waiters, id)
	} else {
		r.waiters[id] = chs
	}
}

// CommitsSince returns the retained commit events at stream positions
// [cursor, ...), the cursor to pass next time, and how many requested
// events were evicted from the retention ring before they could be read.
// Pass cursor 0 on the first call. Cost is O(events returned),
// independent of history length.
func (r *Recorder) CommitsSince(cursor uint64) (events []core.CommitEvent, next uint64, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.commits.since(cursor)
}

// CommitCursor returns the current end-of-stream cursor (the position the
// next commit event will get); subscribers that only want future events
// start from it.
func (r *Recorder) CommitCursor() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.commits.total
}

// Commits returns all retained commit events (keepCommits mode).
// Deprecated-style convenience for tests and examples: it copies the whole
// ring, so measurement loops should use CommitsSince with a cursor.
func (r *Recorder) Commits() []core.CommitEvent {
	events, _, _ := r.CommitsSince(0)
	return events
}

// OnFailSignal records fail-signal emission/receipt.
func (r *Recorder) OnFailSignal(ev core.FailSignalEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failSignals = append(r.failSignals, ev)
}

// OnInstalled records IN5 completion at one process.
func (r *Recorder) OnInstalled(ev core.InstallEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.installs = append(r.installs, ev)
}

// OnStartTuplesIssued records IN4 at the new coordinator (the fail-over
// latency clock stop).
func (r *Recorder) OnStartTuplesIssued(ev core.InstallEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tuples = append(r.tuples, ev)
}

// OnPairRecovered records an SCR pair recovery.
func (r *Recorder) OnPairRecovered(ev core.InstallEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recoveries = append(r.recoveries, ev)
}

// Recoveries returns recorded pair recoveries.
func (r *Recorder) Recoveries() []core.InstallEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]core.InstallEvent, len(r.recoveries))
	copy(out, r.recoveries)
	return out
}

// LatencySummary summarises order latencies in the measurement window. The
// summary is memoized between new samples, so polling it is O(1).
func (r *Recorder) LatencySummary() stats.Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.latencies.Summary()
}

// CommittedEntries returns the committed-request count at a process within
// the window.
func (r *Recorder) CommittedEntries(node types.NodeID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.commitsPerNode[node]
}

// FailSignals returns all recorded fail-signal events (fail-over history
// is short; unlike commits it needs no cursor subscription).
func (r *Recorder) FailSignals() []core.FailSignalEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]core.FailSignalEvent, len(r.failSignals))
	copy(out, r.failSignals)
	return out
}

// Installs returns all recorded installation events.
func (r *Recorder) Installs() []core.InstallEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]core.InstallEvent, len(r.installs))
	copy(out, r.installs)
	return out
}

// FailOverLatency returns the paper's fail-over measure: the interval from
// the first fail-signal *emission* to the first Start-tuples issuance at
// the new coordinator. ok is false until both endpoints were observed.
func (r *Recorder) FailOverLatency() (time.Duration, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var start, end time.Time
	for _, ev := range r.failSignals {
		if ev.Emitter && (start.IsZero() || ev.At.Before(start)) {
			start = ev.At
		}
	}
	for _, ev := range r.tuples {
		if end.IsZero() || ev.At.Before(end) {
			end = ev.At
		}
	}
	if start.IsZero() || end.IsZero() || end.Before(start) {
		return 0, false
	}
	return end.Sub(start), true
}

// BatchCount returns how many batches got their first commit.
func (r *Recorder) BatchCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.batches
}
