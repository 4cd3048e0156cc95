package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/fsp"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

func poolReq(seq uint64) *message.Request {
	return &message.Request{Client: types.ClientID(0), ClientSeq: seq, Payload: []byte("x")}
}

// pendingBrute recomputes PendingCount by walking the arrival queue, so
// the O(1) counter can be checked against ground truth after every
// mutation.
func pendingBrute(p *RequestPool) int {
	return len(p.Pending())
}

func checkPending(t *testing.T, p *RequestPool, step string) {
	t.Helper()
	if got, want := p.PendingCount(), pendingBrute(p); got != want {
		t.Fatalf("%s: PendingCount = %d, brute force = %d", step, got, want)
	}
}

func TestPoolPendingCountTracksMutations(t *testing.T) {
	p := NewRequestPool()
	checkPending(t, p, "empty")
	for i := uint64(1); i <= 20; i++ {
		p.Add(poolReq(i))
		checkPending(t, p, fmt.Sprintf("add %d", i))
	}
	// Mark some ordered out of band (shadow endorsement path) — their
	// queue entries go stale.
	for i := uint64(1); i <= 5; i++ {
		p.MarkOrdered(poolReq(i).ID())
		p.MarkOrdered(poolReq(i).ID()) // idempotent
		checkPending(t, p, fmt.Sprintf("mark %d", i))
	}
	// Unmark one with a stale queue entry (fail-over re-ordering): its
	// stale entry revives in place.
	p.UnmarkOrdered(poolReq(3).ID())
	checkPending(t, p, "unmark queued")
	if p.PendingCount() != 16 {
		t.Fatalf("PendingCount = %d, want 16", p.PendingCount())
	}
	// Drain through NextBatch, skipping the stale entries.
	got := p.NextBatch(1<<20, 8)
	checkPending(t, p, "drain")
	if len(got) != 16 {
		t.Fatalf("NextBatch returned %d, want 16", len(got))
	}
	if p.PendingCount() != 0 {
		t.Fatalf("PendingCount after drain = %d, want 0", p.PendingCount())
	}
	// Unmark a popped request: it re-enqueues.
	p.UnmarkOrdered(poolReq(7).ID())
	checkPending(t, p, "unmark popped")
	if p.PendingCount() != 1 {
		t.Fatalf("PendingCount after re-enqueue = %d, want 1", p.PendingCount())
	}
}

// TestPoolQueueCompaction pins the leak fix: popping must not retain the
// consumed prefix of the arrival queue forever (the old re-slice kept the
// full backing array — and every popped ReqID — reachable).
func TestPoolQueueCompaction(t *testing.T) {
	p := NewRequestPool()
	const n = 10 * poolCompactMin
	for i := uint64(1); i <= n; i++ {
		p.Add(poolReq(i))
	}
	for drained := 0; drained < n; {
		batch := p.NextBatch(64, 8)
		if len(batch) == 0 {
			t.Fatal("NextBatch starved with requests pending")
		}
		drained += len(batch)
	}
	length, head := p.queueFootprint()
	if length-head != 0 {
		t.Fatalf("queue has %d live entries after full drain", length-head)
	}
	if length > 2*poolCompactMin {
		t.Fatalf("queue backing retains %d consumed entries; compaction failed", length)
	}
	// Batch ordering is preserved across compactions.
	p2 := NewRequestPool()
	for i := uint64(1); i <= n; i++ {
		p2.Add(poolReq(i))
	}
	var order []uint64
	for len(order) < n {
		for _, r := range p2.NextBatch(64, 8) {
			order = append(order, r.ClientSeq)
		}
	}
	for i, seq := range order {
		if seq != uint64(i+1) {
			t.Fatalf("arrival order broken at %d: got seq %d", i, seq)
		}
	}
}

// bytesBrute recomputes PendingBytes from scratch so the incremental
// accounting can be checked against ground truth after every mutation.
func bytesBrute(p *RequestPool) int {
	n := 0
	for _, r := range p.Pending() {
		n += len(r.Payload) + p.entryExtra
	}
	return n
}

func checkBytes(t *testing.T, p *RequestPool, step string) {
	t.Helper()
	if got, want := p.PendingBytes(), bytesBrute(p); got != want {
		t.Fatalf("%s: PendingBytes = %d, brute force = %d", step, got, want)
	}
}

func poolReqSized(seq uint64, size int) *message.Request {
	return &message.Request{Client: types.ClientID(0), ClientSeq: seq, Payload: make([]byte, size)}
}

// TestPoolPendingBytesTracksMutations pins the size-trigger's byte
// accounting across every queue mutation the protocol performs: add,
// out-of-band ordering, fail-over revival (both the stale-entry and the
// re-enqueue variant) and batch pops.
func TestPoolPendingBytesTracksMutations(t *testing.T) {
	p := NewRequestPool()
	p.SetBatchTarget(1<<20, EntryOverhead+32, func() {})
	checkBytes(t, p, "empty")
	for i := uint64(1); i <= 20; i++ {
		p.Add(poolReqSized(i, int(i)*7))
		checkBytes(t, p, fmt.Sprintf("add %d", i))
	}
	for i := uint64(1); i <= 5; i++ {
		p.MarkOrdered(poolReq(i).ID())
		p.MarkOrdered(poolReq(i).ID())
		checkBytes(t, p, fmt.Sprintf("mark %d", i))
	}
	p.UnmarkOrdered(poolReq(3).ID())
	checkBytes(t, p, "unmark queued")
	for p.PendingCount() > 0 {
		if len(p.NextBatch(256, 32)) == 0 {
			t.Fatal("NextBatch starved with requests pending")
		}
		checkBytes(t, p, "drain")
	}
	if p.PendingBytes() != 0 {
		t.Fatalf("PendingBytes after drain = %d, want 0", p.PendingBytes())
	}
	p.UnmarkOrdered(poolReq(7).ID())
	checkBytes(t, p, "unmark popped")
}

// TestPoolBatchTargetEdgeTrigger pins the signal semantics: the trigger
// fires exactly when an Add crosses the byte target from below — not on
// every Add above it — and re-arms once a drain takes pending bytes back
// under the target.
func TestPoolBatchTargetEdgeTrigger(t *testing.T) {
	p := NewRequestPool()
	fired := 0
	const extra = EntryOverhead + 32
	// Target of three 100-byte requests (plus overhead).
	p.SetBatchTarget(3*(100+extra), extra, func() { fired++ })

	p.Add(poolReqSized(1, 100))
	p.Add(poolReqSized(2, 100))
	if fired != 0 {
		t.Fatalf("trigger fired below target (fired=%d)", fired)
	}
	p.Add(poolReqSized(3, 100))
	if fired != 1 {
		t.Fatalf("crossing the target fired %d times, want 1", fired)
	}
	p.Add(poolReqSized(4, 100))
	p.Add(poolReqSized(5, 100))
	if fired != 1 {
		t.Fatalf("adds above the target re-fired the trigger (fired=%d)", fired)
	}
	// Drain below the target, then cross it again.
	for p.PendingBytes() >= 3*(100+extra)-1 {
		p.NextBatch(100+extra, 32)
	}
	p.Add(poolReqSized(6, 100))
	p.Add(poolReqSized(7, 100))
	if fired != 2 {
		t.Fatalf("re-crossing after a drain fired %d times, want 2", fired)
	}
	// A duplicate add must not fire or double-count.
	before := p.PendingBytes()
	p.Add(poolReqSized(7, 100))
	if p.PendingBytes() != before || fired != 2 {
		t.Fatalf("duplicate add changed accounting (bytes %d->%d, fired=%d)",
			before, p.PendingBytes(), fired)
	}
}

// TestPoolOversizedSingleton pins NextBatch's starvation guard: a request
// whose lone cost exceeds the byte budget is still returned (as a
// singleton batch), and ordering proceeds past it.
func TestPoolOversizedSingleton(t *testing.T) {
	p := NewRequestPool()
	p.Add(poolReqSized(1, 4096)) // far beyond the 1 KB budget
	p.Add(poolReqSized(2, 100))
	p.Add(poolReqSized(3, 100))
	first := p.NextBatch(1024, 32)
	if len(first) != 1 || first[0].ClientSeq != 1 {
		t.Fatalf("oversized request not returned as a singleton: %d entries", len(first))
	}
	second := p.NextBatch(1024, 32)
	if len(second) != 2 {
		t.Fatalf("requests behind the oversized one starved: got %d, want 2", len(second))
	}
	if p.PendingCount() != 0 || p.PendingBytes() != 0 {
		t.Fatalf("pool not drained: pending=%d bytes=%d", p.PendingCount(), p.PendingBytes())
	}
}

// TestEntryBudgetCoversWireCost pins the budget constants against the real
// encoding: the per-entry wire bytes an OrderBatch adds (identifiers,
// length prefixes, digest) must not exceed EntryOverhead plus the digest
// size NextBatch charges, or "full" batches would overflow the frame
// budget they were packed for.
func TestEntryBudgetCoversWireCost(t *testing.T) {
	const digestSize = 32
	entry := func(i uint64) message.OrderEntry {
		return message.OrderEntry{
			Req:       message.ReqID{Client: types.ClientID(1), ClientSeq: i},
			ReqDigest: make([]byte, digestSize),
		}
	}
	batchBytes := func(n int) int {
		b := &message.OrderBatch{Coord: 1, View: 1, FirstSeq: 1, Primary: 1, Shadow: 2}
		for i := uint64(0); i < uint64(n); i++ {
			b.Entries = append(b.Entries, entry(i))
		}
		return len(b.Marshal())
	}
	perEntry := batchBytes(9) - batchBytes(8)
	if perEntry > EntryOverhead+digestSize {
		t.Fatalf("one entry costs %d wire bytes, budget charges only %d",
			perEntry, EntryOverhead+digestSize)
	}
}

// tickingEnv is fakeEnv with a clock that advances at every reading, so
// the deadlines of expectations tell the order they were armed in.
type tickingEnv struct {
	fakeEnv
	now time.Time
}

func (e *tickingEnv) Now() time.Time {
	e.now = e.now.Add(time.Nanosecond)
	return e.now
}

// TestArmShadowExpectationsArmsPendingInArrivalOrder pins what a process
// monitors the instant it becomes shadow: with n requests ordered and k
// still pending it arms exactly k order-decision expectations, in the
// requests' arrival order — from the pool's walk over its pending entries,
// not from every request it ever pooled in map order.
func TestArmShadowExpectationsArmsPendingInArrivalOrder(t *testing.T) {
	fx := newEvidenceFixture(t)
	shadow, err := New(fx.s1, Config{
		Topo:          fx.topo,
		BatchInterval: 10 * time.Millisecond,
		MaxBatchBytes: 1024,
		Delta:         time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n, k = 40, 8
	var ordered, pending []message.ReqID
	for i := 0; i < n+k; i++ {
		r := &message.Request{Client: types.ClientID(i % 2), ClientSeq: uint64(i), Payload: []byte("x")}
		shadow.pool.Add(r)
		if i%6 == 3 {
			pending = append(pending, r.ID())
		} else {
			shadow.pool.MarkOrdered(r.ID())
			ordered = append(ordered, r.ID())
		}
	}
	if len(pending) != k || len(ordered) != n {
		t.Fatalf("fixture has %d pending, %d ordered", len(pending), len(ordered))
	}
	env := &tickingEnv{fakeEnv: fakeEnv{Identity: fx.idents[fx.s1]}}
	shadow.armShadowExpectations(env)
	for _, id := range ordered {
		if _, awaited := shadow.pair.Met(fsp.OrderKey(id)); awaited {
			t.Errorf("an order decision is awaited for %v, which is already ordered", id)
		}
	}
	var last time.Time
	for _, id := range pending {
		deadline, awaited := shadow.pair.Met(fsp.OrderKey(id))
		if !awaited {
			t.Fatalf("no order decision awaited for pending %v", id)
		}
		if !deadline.After(last) {
			t.Errorf("%v was armed before a request that arrived ahead of it", id)
		}
		last = deadline
	}
}
