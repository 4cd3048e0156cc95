package replica

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/types"
)

// StateMachine is a deterministic service.
type StateMachine interface {
	// Apply executes one request payload and returns its result. Apply
	// must be deterministic: identical request sequences must produce
	// identical results on every replica.
	Apply(payload []byte) []byte
}

// Replica applies committed batches, in order, to a state machine. It is
// driven by the order process's OnCommit hook, which runs in the process's
// event loop — the only place it touches the process's pool — and its
// accessors are safe for concurrent inspection.
type Replica struct {
	node types.NodeID
	sm   StateMachine

	mu       sync.Mutex
	applied  types.Seq
	pending  map[types.Seq]core.CommitEvent // committed but waiting on payloads or order
	results  map[message.ReqID][]byte
	appliedN int

	// retention bounds the results map (0 = unlimited): resultLog records
	// apply order (head-indexed FIFO) and results older than the newest
	// `retention` applications are pruned. Without the bound a long-lived
	// replica retains one result per request ever executed.
	retention  int
	resultLog  []message.ReqID
	resultHead int

	retries atomic.Uint64 // Retry calls (read by metric scrapes without mu)
}

// New returns a replica wrapping sm for the given order process node.
func New(node types.NodeID, sm StateMachine) *Replica {
	return &Replica{
		node:    node,
		sm:      sm,
		pending: make(map[types.Seq]core.CommitEvent),
		results: make(map[message.ReqID][]byte),
	}
}

// SetResultRetention bounds how many execution results the replica
// retains for Result lookups (0 = unlimited). Results beyond the bound
// are pruned oldest-first; callers that need a result must read it within
// `n` subsequent applications, which mirrors the recorder's bounded
// commit retention.
func (r *Replica) SetResultRetention(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retention = n
	r.pruneResultsLocked()
}

// HandleCommit consumes one commit event, resolving request payloads from
// the order process's pool. Batches may be applied only contiguously;
// commits arriving with a gap (possible across coordinator installs) wait
// in pending. Events at or below the applied watermark — duplicates from
// a durable restart's replay, catch-up re-delivery, or Start adoption —
// are dropped on entry: stored under their FirstSeq they would never
// match the applied+1 lookup and would sit in pending forever.
func (r *Replica) HandleCommit(pool *core.RequestPool, ev core.CommitEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ev.LastSeq <= r.applied {
		return // duplicate of an already-applied range
	}
	r.pending[ev.FirstSeq] = ev
	r.advanceLocked(pool)
}

// Retry re-attempts contiguous application of buffered commit events.
// Payloads race the commit stream: a request can commit (through peers'
// acks) before the client's own copy reaches this node's pool, and if no
// later commit follows, the buffered event would wedge until one does.
// The order process's loop calls Retry after each delivery while events
// are pending, so the tail of the stream applies as its payloads arrive.
func (r *Replica) Retry(pool *core.RequestPool) {
	r.retries.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advanceLocked(pool)
}

// RegisterMetrics attaches func-backed gauges over the replica's existing
// thread-safe accessors — the apply path is untouched; values are read
// only when the registry is scraped.
func (r *Replica) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("sof_replica_applied_seq",
		"Highest sequence number applied to the state machine.",
		func() float64 { seq, _ := r.Applied(); return float64(seq) }, labels...)
	reg.GaugeFunc("sof_replica_pending_events",
		"Commit events buffered awaiting contiguous application.",
		func() float64 { return float64(r.PendingCount()) }, labels...)
	reg.GaugeFunc("sof_replica_results_retained",
		"Execution results retained for client Result lookups.",
		func() float64 { return float64(r.ResultCount()) }, labels...)
	reg.CounterFunc("sof_replica_retries_total",
		"Retries re-attempting application after late payload arrival.",
		func() uint64 { return r.retries.Load() }, labels...)
}

// advanceLocked applies buffered events contiguously and sweeps entries
// overtaken by the watermark.
func (r *Replica) advanceLocked(pool *core.RequestPool) {
	advanced := false
	for {
		next, ok := r.pending[r.applied+1]
		if !ok {
			break
		}
		if !r.applyLocked(pool, next) {
			break
		}
		delete(r.pending, next.FirstSeq)
		advanced = true
	}
	if advanced {
		// Entries overtaken by the watermark (stale gap-fillers) can never
		// match the applied+1 lookup again; sweep them so pending stays
		// bounded by the live gap, not by history.
		for seq, p := range r.pending {
			if p.LastSeq <= r.applied {
				delete(r.pending, seq)
			}
		}
	}
}

// applyLocked applies one batch; it reports false if a payload is missing
// (the caller retries on a later commit — clients multicast requests to
// all nodes, so the payload eventually arrives with a later event).
func (r *Replica) applyLocked(pool *core.RequestPool, ev core.CommitEvent) bool {
	// One pool pass: collect the payloads while checking presence, so a
	// batch applies whole or not at all.
	reqs := make([]*message.Request, len(ev.Entries))
	for i, e := range ev.Entries {
		req, ok := pool.Get(e.Req)
		if !ok {
			return false
		}
		reqs[i] = req
	}
	for i, e := range ev.Entries {
		result := r.sm.Apply(reqs[i].Payload)
		if _, dup := r.results[e.Req]; !dup {
			r.resultLog = append(r.resultLog, e.Req)
		}
		r.results[e.Req] = result
		r.appliedN++
	}
	r.applied = ev.LastSeq
	r.pruneResultsLocked()
	return true
}

// pruneResultsLocked enforces the result-retention bound.
func (r *Replica) pruneResultsLocked() {
	if r.retention <= 0 {
		return
	}
	for len(r.resultLog)-r.resultHead > r.retention {
		delete(r.results, r.resultLog[r.resultHead])
		r.resultHead++
	}
	if r.resultHead > 0 && r.resultHead*2 >= len(r.resultLog) {
		n := copy(r.resultLog, r.resultLog[r.resultHead:])
		r.resultLog = r.resultLog[:n]
		r.resultHead = 0
	}
}

// Result returns the stored result for a request.
func (r *Replica) Result(id message.ReqID) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.results[id]
	return res, ok
}

// PendingCount reports how many commit events await contiguous
// application (leak-regression tests pin that duplicates do not
// accumulate here).
func (r *Replica) PendingCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// ResultCount reports how many execution results are retained.
func (r *Replica) ResultCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.results)
}

// Applied returns the highest applied sequence number and the number of
// requests executed.
func (r *Replica) Applied() (types.Seq, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied, r.appliedN
}

// --- example state machines ---

// KVOp codes for the KVStore wire format.
const (
	KVSet byte = 1
	KVGet byte = 2
	KVDel byte = 3
)

// EncodeKV builds a KVStore command: op, key and (for set) value.
func EncodeKV(op byte, key, value string) []byte {
	out := []byte{op, byte(len(key))}
	out = append(out, key...)
	out = append(out, value...)
	return out
}

// KVStore is a replicated string key-value store.
type KVStore struct {
	data map[string]string
}

var _ StateMachine = (*KVStore)(nil)

// NewKVStore returns an empty store.
func NewKVStore() *KVStore { return &KVStore{data: make(map[string]string)} }

// Apply implements StateMachine.
func (s *KVStore) Apply(payload []byte) []byte {
	if len(payload) < 2 {
		return []byte("ERR malformed")
	}
	op, klen := payload[0], int(payload[1])
	if len(payload) < 2+klen {
		return []byte("ERR malformed")
	}
	key := string(payload[2 : 2+klen])
	rest := payload[2+klen:]
	switch op {
	case KVSet:
		s.data[key] = string(rest)
		return []byte("OK")
	case KVGet:
		if v, ok := s.data[key]; ok {
			return []byte(v)
		}
		return []byte("NOT_FOUND")
	case KVDel:
		delete(s.data, key)
		return []byte("OK")
	default:
		return []byte(fmt.Sprintf("ERR op %d", op))
	}
}

// Counter is a state machine whose every request increments a counter and
// returns its new value.
type Counter struct {
	n int64
}

var _ StateMachine = (*Counter)(nil)

// Apply implements StateMachine.
func (c *Counter) Apply([]byte) []byte {
	c.n++
	return []byte(fmt.Sprintf("%d", c.n))
}

// Echo returns each payload unchanged (useful for tests comparing
// cross-replica results).
type Echo struct{}

var _ StateMachine = Echo{}

// Apply implements StateMachine.
func (Echo) Apply(payload []byte) []byte { return bytes.Clone(payload) }
