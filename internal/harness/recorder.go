package harness

import (
	"sync"
	"sync/atomic"
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
	buf []core.CommitEvent
	// first[i] marks buf[i] as the first commit of some request, so
	// evicting the other events — the rest of the processes' copies of a
	// batch — costs no index lookups.
	first []bool
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

func (r *commitRing) append(ev core.CommitEvent, first bool) {
	switch {
	case r.limit <= 0 || len(r.buf) < r.limit:
		r.buf = append(r.buf, ev)
		r.first = append(r.first, first)
	default:
		r.buf[r.head], r.first[r.head] = ev, first
		r.head++
		if r.head == len(r.buf) {
			r.head = 0
		}
	}
	r.total++
}

// oldest returns the absolute position of the oldest retained event.
func (r *commitRing) oldest() uint64 { return r.total - uint64(len(r.buf)) }

// evictee returns the event the next append overwrites, if it first
// committed some request, or nil.
func (r *commitRing) evictee() *core.CommitEvent {
	if r.limit <= 0 || len(r.buf) < r.limit || !r.first[r.head] {
		return nil
	}
	return &r.buf[r.head]
}

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

	// keepCommits retains commit events in a ring for cursor readers;
	// committed maps each request to the stream position of the event
	// that first committed it. An entry lives as long as that event: the
	// ring's eviction drops it (unbounded without keepCommits). wake is
	// the commit signal Cluster.AwaitCommit sleeps on, shared by the
	// recorders of one cluster.
	keepCommits bool
	commits     commitRing
	committed   map[message.ReqID]uint64
	wake        *commitWake
}

// commitWake is the one signal a cluster's commit waiters sleep on: a
// waiter counts itself in, takes the current channel, re-checks the
// index and parks; a commit that indexes a new request closes the
// channel, and only while someone waits.
type commitWake struct {
	waiting atomic.Int32
	mu      sync.Mutex
	ch      chan struct{}
}

// next returns the channel the next fire closes.
func (w *commitWake) next() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ch == nil {
		w.ch = make(chan struct{})
	}
	return w.ch
}

// fire wakes every waiter parked on the current channel.
func (w *commitWake) fire() {
	if w.waiting.Load() == 0 {
		return
	}
	w.mu.Lock()
	if w.ch != nil {
		close(w.ch)
		w.ch = nil
	}
	w.mu.Unlock()
}

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
		wake:           new(commitWake),
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
// batch stops that batch's latency clock. The event evicted to make room
// for it takes its first commits out of the index first, so that ev
// re-indexes any of them it commits again.
func (r *Recorder) OnCommit(ev core.CommitEvent) {
	r.mu.Lock()
	pos := r.commits.total // stream position this event gets if retained
	if old := r.commits.evictee(); old != nil {
		at := r.commits.oldest()
		for i := range old.Entries {
			// A request evicted and committed again is indexed at its
			// newer position; only its first commit here goes.
			if id := old.Entries[i].Req; r.committed[id] == at {
				delete(r.committed, id)
			}
		}
	}
	first := false
	for i := range ev.Entries {
		id := ev.Entries[i].Req
		if _, dup := r.committed[id]; !dup {
			r.committed[id] = pos
			first = true
		}
	}
	if r.keepCommits {
		r.commits.append(ev, first)
	}
	if first {
		r.wake.fire()
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

// Committed reports whether the request has been committed at some
// process, in O(1). With a bounded ring the answer is forgotten once the
// event that first committed the request is evicted.
func (r *Recorder) Committed(id message.ReqID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.committed[id]
	return ok
}

// CommittedIndexSize reports how many requests the committed index
// currently holds.
func (r *Recorder) CommittedIndexSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.committed)
}

// PruneCommittedBelow does nothing and returns 0: the committed index
// drops a request when the ring evicts the event that first committed
// it, whatever the readers' cursors.
//
// Deprecated: kept while the bench module still calls it.
func (r *Recorder) PruneCommittedBelow(cursor uint64) int { return 0 }

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
