package core

import (
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

// RequestPool holds client requests awaiting ordering and execution.
// Clients multicast requests to every order process, so each process
// accumulates its own copy. The pool is owned by its process's event loop
// — the protocol and the replica executing its commits both run there —
// and is not safe for concurrent use. The arrival and batch-full callbacks
// re-enter the pool, so they fire once its own state is settled.
//
// Everything the pool knows about one request — its body, whether it has
// been assigned a sequence number, whether it holds a live place in the
// arrival queue — is one slab entry found by one index lookup; the arrival
// queues hold slab positions, so a dequeue looks nothing up.
//
// Each client has its own arrival queue, and NextBatch drains them by
// deficit round robin (Shreedhar and Varghese, SIGCOMM 1995): each
// backlogged client earns drrQuantum bytes of service per scheduling
// round, so one flooding client cannot push every other client's requests
// arbitrarily far back. With a single client this is the paper's strict
// arrival order.
type RequestPool struct {
	index   map[poolKey]uint32 // request → position in slab
	slab    []poolEntry
	free    []uint32           // released slab positions, reused before the slab grows
	known   int                // entries holding a body (Len)
	pending int                // queued entries still awaiting ordering (O(1) PendingCount)
	batch   []*message.Request // NextBatch's result, reused by the next call

	// onArrival fires when a body the owner awaits (Await) arrives, before
	// onTarget: one callback fixed at Init, so awaiting a body costs no
	// heap object.
	onArrival func(message.ReqID)

	// pendingBytes is the estimated batch-wire cost of the pending
	// entries (payload plus per-entry overhead), maintained across
	// Add/MarkOrdered/UnmarkOrdered/NextBatch like pending. targetBytes,
	// lastCost and onTarget implement the adaptive batch close: the
	// pending entries fill a batch once another entry like the last one
	// admitted would no longer fit beside them (BatchFull — NextBatch's
	// own pop rule, so the batch it then pops strands nothing), and when
	// an Add makes that true onTarget fires (after onArrival) so the
	// owning primary can close the batch on the arrival that fills it
	// instead of waiting for its timer. The trigger is edge-based: once
	// full no further Adds fire it until NextBatch drains the pool below a
	// batch again.
	pendingBytes int
	targetBytes  int
	entryExtra   int // per-entry overhead beyond the payload
	lastCost     int // wire cost of the last entry Add admitted
	onTarget     func()

	// queues are the per-client arrival queues; ring is the round-robin
	// rotation of backlogged clients; active counts the clients with live
	// pending entries (each clientQueue keeps its own count — the ingress
	// layer's per-client occupancy).
	queues map[types.NodeID]*clientQueue
	ring   []types.NodeID
	active int
}

// poolKey is a ReqID as the index hashes it: two words without padding, so
// the map uses the runtime's fixed-size memory hash (ReqID's padded layout
// forces the slower generated one).
type poolKey [2]uint64

func keyOf(id message.ReqID) poolKey {
	return poolKey{uint64(uint32(id.Client)), id.ClientSeq}
}

// poolEntry is what the pool knows about one request. An entry exists
// while it has a body, is marked ordered (possibly ahead of its body's
// arrival), is awaited or is still named by an unconsumed arrival-queue
// slot; it is released when none of the four holds.
type poolEntry struct {
	req *message.Request // nil while the body is unknown or was dropped
	id  message.ReqID
	// slots counts the unconsumed arrival-queue slots naming this entry.
	// Usually one; a request dropped and re-added before the dequeue
	// reached its first slot holds two, and is served at the first.
	slots uint32
	// awaits counts the owner's outstanding Awaits of the missing body;
	// the body's arrival settles them all at once.
	awaits  uint32
	ordered bool // assigned a sequence number, as far as this process knows
	// queued: the entry holds a live place in the arrival queue. Cleared
	// when the dequeue consumes one of its slots or the body is dropped;
	// an ordered entry keeps it (and its slot) until the dequeue gets
	// there, so an UnmarkOrdered before that regains the original place.
	queued bool
	walked bool // Pending's scratch mark
}

// clientQueue is one client's FIFO arrival queue, consumed from head, plus
// its deficit-round-robin account. Popping advances head instead of
// re-slicing (a re-slice keeps the whole backing array reachable);
// compact periodically copies the live tail to the front so the consumed
// prefix is actually released.
type clientQueue struct {
	ids     []uint32
	head    int
	pending int // live pending entries (ClientPending)
	deficit int // unspent service bytes from earlier scheduling rounds
	inRing  bool
}

// poolCompactMin is the minimum consumed-prefix length before compaction
// is considered; below it the copy is not worth the bookkeeping.
const poolCompactMin = 64

// drrQuantum is the service, in batch-wire bytes, each backlogged client
// earns per scheduling round.
const drrQuantum = 256

// NewRequestPool returns an empty pool.
func NewRequestPool() *RequestPool {
	return &RequestPool{
		index:  make(map[poolKey]uint32),
		queues: make(map[types.NodeID]*clientQueue),
	}
}

// lookup finds id's entry and its slab position (nil if there is none).
// The pointer is good until the slab next grows (entry).
func (p *RequestPool) lookup(id message.ReqID) (uint32, *poolEntry) {
	if i, ok := p.index[keyOf(id)]; ok {
		return i, &p.slab[i]
	}
	return 0, nil
}

// entry returns id's entry and its slab position, creating it if absent.
func (p *RequestPool) entry(id message.ReqID) (uint32, *poolEntry) {
	key := keyOf(id)
	i, ok := p.index[key]
	if !ok {
		if n := len(p.free); n > 0 {
			i, p.free = p.free[n-1], p.free[:n-1]
		} else {
			i = uint32(len(p.slab))
			p.slab = append(p.slab, poolEntry{})
		}
		p.slab[i].id = id
		p.index[key] = i
	}
	return i, &p.slab[i]
}

// release retires the entry at slab position i once nothing refers to it:
// no body, not ordered, not awaited, no arrival-queue slot left to consume.
func (p *RequestPool) release(i uint32, e *poolEntry) {
	if e.req != nil || e.ordered || e.awaits > 0 || e.slots > 0 {
		return
	}
	delete(p.index, keyOf(e.id))
	*e = poolEntry{}
	p.free = append(p.free, i)
}

// consumeSlot accounts for the dequeue moving past one of the entry's
// arrival-queue slots: whatever place it held is spent.
func (p *RequestPool) consumeSlot(i uint32, e *poolEntry) {
	e.slots--
	e.queued = false
	p.release(i, e)
}

// pop takes the live entry at the head of an arrival queue into a batch:
// out of the pending counters, ordered, its slot spent.
func (p *RequestPool) pop(i uint32, e *poolEntry) *message.Request {
	p.pendingDelta(e, -1)
	e.ordered = true
	p.consumeSlot(i, e)
	return e.req
}

// enqueue appends a not-yet-ordered entry to its client's arrival queue.
func (p *RequestPool) enqueue(i uint32, e *poolEntry) {
	q := p.queues[e.id.Client]
	if q == nil {
		q = &clientQueue{}
		p.queues[e.id.Client] = q
	}
	q.ids = append(q.ids, i)
	if !q.inRing {
		q.inRing = true
		p.ring = append(p.ring, e.id.Client)
	}
	e.slots++
	e.queued = true
	p.pendingDelta(e, 1)
}

// pendingDelta moves the entry into (d = 1) or out of (d = -1) the pending
// counters: pending, pendingBytes, its client's occupancy and with it the
// backlogged-client count. It must be applied symmetrically wherever a
// pending entry enters or leaves, so the counters never drift.
func (p *RequestPool) pendingDelta(e *poolEntry, d int) {
	p.pending += d
	p.pendingBytes += d * p.cost(e)
	q := p.queues[e.id.Client]
	if q.pending == 0 {
		p.active++
	}
	if q.pending += d; q.pending == 0 {
		p.active--
	}
}

// SetFair does nothing: every pool dequeues by deficit round robin with a
// quantum of drrQuantum bytes.
//
// Deprecated: kept while the bench module still calls it.
func (p *RequestPool) SetFair(quantum int) {}

// ClientPending returns client's live pending entries.
func (p *RequestPool) ClientPending(client types.NodeID) int {
	if q := p.queues[client]; q != nil {
		return q.pending
	}
	return 0
}

// ActiveClients returns how many clients currently have pending entries.
func (p *RequestPool) ActiveClients() int {
	return p.active
}

// cost is the estimated batch-wire cost of one pending entry.
func (p *RequestPool) cost(e *poolEntry) int {
	return len(e.req.Payload) + p.entryExtra
}

// SetBatchTarget installs the adaptive-close trigger: fn fires whenever
// an Add makes the pending entries fill a batch of targetBytes (see
// BatchFull). extra is the per-entry overhead beyond the payload
// (EntryOverhead plus the digest size). Install it before traffic
// flows — the owning process does so in Init, with the pool still empty —
// because already-pending entries are not re-costed.
func (p *RequestPool) SetBatchTarget(targetBytes, extra int, fn func()) {
	p.targetBytes = targetBytes
	p.entryExtra = extra
	p.onTarget = fn
}

// PendingBytes returns the estimated batch-wire cost of the pending
// entries.
func (p *RequestPool) PendingBytes() int {
	return p.pendingBytes
}

// BatchFull reports whether the pending entries fill a batch of the
// SetBatchTarget size by NextBatch's own measure: another entry like the
// last one admitted would no longer fit beside them, so the batch
// NextBatch pops now is as full as it will get. False without a target.
func (p *RequestPool) BatchFull() bool {
	return p.targetBytes > 0 && p.pending > 0 && p.pendingBytes+p.lastCost > p.targetBytes
}

// SetArrivalHook installs the callback Add fires when an awaited body
// arrives (see Await). The owning process installs it in Init.
func (p *RequestPool) SetArrivalHook(fn func(message.ReqID)) {
	p.onArrival = fn
}

// Add stores a request; duplicates are ignored. It reports whether the
// request was new, and fires the arrival hook if the body was awaited plus
// the batch-full trigger (both once the entry is in place; they re-enter
// the pool).
func (p *RequestPool) Add(req *message.Request) bool {
	id := req.ID()
	i, e := p.entry(id)
	if e.req != nil {
		return false
	}
	e.req = req
	p.known++
	fire := false
	if !e.ordered && !e.queued {
		wasFull := p.BatchFull()
		p.enqueue(i, e)
		p.lastCost = p.cost(e)
		fire = p.onTarget != nil && !wasFull && p.BatchFull()
	}
	awaited := e.awaits > 0
	e.awaits = 0
	if awaited && p.onArrival != nil {
		p.onArrival(id)
	}
	if fire {
		p.onTarget()
	}
	return true
}

// Get returns a stored request.
func (p *RequestPool) Get(id message.ReqID) (*message.Request, bool) {
	if _, e := p.lookup(id); e != nil && e.req != nil {
		return e.req, true
	}
	return nil, false
}

// Await registers one more wait for a body the pool does not hold: its
// arrival fires the arrival hook once, however many waits it settles. The
// shadow coordinator uses this to defer value-domain validation of an
// order whose request is still in flight. A body already held is not
// awaited.
func (p *RequestPool) Await(id message.ReqID) {
	if _, e := p.entry(id); e.req == nil {
		e.awaits++
	}
}

// Unawait withdraws one wait Await registered whose body has not arrived
// (the owner abandoned what it was waiting for).
func (p *RequestPool) Unawait(id message.ReqID) {
	i, e := p.lookup(id)
	if e == nil || e.awaits == 0 {
		return
	}
	e.awaits--
	p.release(i, e)
}

// Awaited reports whether the owner awaits the request's body — the
// protocol itself is blocked on it (a deferred shadow endorsement), so
// admission must not refuse it.
func (p *RequestPool) Awaited(id message.ReqID) bool {
	_, e := p.lookup(id)
	return e != nil && e.awaits > 0
}

// Drop discards an unordered request outright, reversing its pending
// accounting; its stale queue slot is skipped when the dequeue reaches
// it, and the entry goes with it. Ordered requests are never dropped —
// their bodies are still owed to the replica layer. The ingress layer
// uses Drop for requests the proposer refused at admission (shed parity)
// and for entries whose eviction TTL expired without an ordering
// decision.
func (p *RequestPool) Drop(id message.ReqID) {
	i, e := p.lookup(id)
	if e == nil || e.ordered || e.req == nil {
		return
	}
	if e.queued {
		e.queued = false
		p.pendingDelta(e, -1)
	}
	e.req = nil
	p.known--
	p.release(i, e)
}

// MarkOrdered records that a request has been assigned a sequence number.
func (p *RequestPool) MarkOrdered(id message.ReqID) {
	_, e := p.entry(id)
	if e.ordered {
		return
	}
	e.ordered = true
	if e.queued {
		// The queue slot is now stale; NextBatch skips it when reached.
		p.pendingDelta(e, -1)
	}
}

// IsOrdered reports whether the request has been assigned a sequence
// number (as far as this process knows).
func (p *RequestPool) IsOrdered(id message.ReqID) bool {
	_, e := p.lookup(id)
	return e != nil && e.ordered
}

// UnmarkOrdered returns a request to the unordered queue; a new coordinator
// uses this for orders dropped during fail-over.
func (p *RequestPool) UnmarkOrdered(id message.ReqID) {
	i, e := p.lookup(id)
	if e == nil || !e.ordered {
		return
	}
	e.ordered = false
	switch {
	case e.req == nil:
		p.release(i, e)
	case e.queued:
		// Its stale queue slot is live again.
		p.pendingDelta(e, 1)
	default:
		p.enqueue(i, e)
	}
}

// Pending returns the requests awaiting ordering, each once: client by
// client in service order, each client's in arrival order. It walks the
// arrival queues, not the pool's history.
func (p *RequestPool) Pending() []*message.Request {
	out := make([]*message.Request, 0, p.pending)
	// An entry named by two slots is reported at the first.
	p.eachSlot(func(e *poolEntry) {
		if e.queued && !e.ordered && !e.walked {
			e.walked = true
			out = append(out, e.req)
		}
	})
	p.eachSlot(func(e *poolEntry) { e.walked = false })
	return out
}

// eachSlot visits the entry behind every unconsumed arrival-queue slot, in
// dequeue order.
func (p *RequestPool) eachSlot(fn func(*poolEntry)) {
	for _, cid := range p.ring {
		q := p.queues[cid]
		for _, i := range q.ids[q.head:] {
			fn(&p.slab[i])
		}
	}
}

// EntryOverhead approximates the wire bytes an order entry adds to a batch
// beyond the request digest (identifiers and length prefixes).
const EntryOverhead = 24

// NextBatch pops unordered requests until adding another would exceed
// maxBytes (counting payload plus EntryOverhead plus digest size per
// entry), marking them ordered. At least one request is returned if any
// is available, so an oversized single request still gets ordered.
//
// The ring holds every backlogged client; the front client earns one
// quantum of deficit per visit, serves queue-head requests while its
// deficit covers their cost, then rotates to the back. Clients whose
// queues empty retire from the ring with their deficit forfeited. Within
// one client requests pop in arrival order, so per-client FIFO semantics
// (and ClientSeq monotonicity) are preserved.
//
// The result is a slice the pool owns and reuses: it is valid until the
// next NextBatch, and callers consume it before they return.
func (p *RequestPool) NextBatch(maxBytes, digestSize int) []*message.Request {
	clear(p.batch) // the last batch's requests are not pinned by the slice
	p.batch = p.nextBatch(p.batch[:0], maxBytes, EntryOverhead+digestSize)
	return p.batch
}

func (p *RequestPool) nextBatch(out []*message.Request, maxBytes, entryMin int) []*message.Request {
	total := 0
	for len(p.ring) > 0 {
		cid := p.ring[0]
		q := p.queues[cid]
		q.dropStaleHead(p)
		if q.head >= len(q.ids) {
			p.retireFront(q)
			continue
		}
		q.deficit += drrQuantum
		for q.head < len(q.ids) {
			q.dropStaleHead(p)
			if q.head >= len(q.ids) {
				break
			}
			i := q.ids[q.head]
			e := &p.slab[i]
			cost := len(e.req.Payload) + entryMin
			if len(out) > 0 {
				if total+cost > maxBytes {
					q.compact()
					return out // batch full; ring order persists for the next one
				}
				if cost > q.deficit {
					break // this round's share is spent
				}
			}
			q.head++
			out = append(out, p.pop(i, e))
			total += cost
			if q.deficit -= cost; q.deficit < 0 {
				q.deficit = 0 // an oversized first request is served on credit
			}
			if total >= maxBytes {
				q.compact()
				return out
			}
		}
		if q.head >= len(q.ids) {
			p.retireFront(q)
			continue
		}
		// Still backlogged: rotate to the back of the ring, keeping any
		// unspent deficit for the next round.
		copy(p.ring, p.ring[1:])
		p.ring[len(p.ring)-1] = cid
		q.compact()
	}
	return out
}

// dropStaleHead advances past queue slots whose entries were ordered out
// of band or dropped (their pending accounting was already reversed).
func (q *clientQueue) dropStaleHead(p *RequestPool) {
	for q.head < len(q.ids) {
		i := q.ids[q.head]
		e := &p.slab[i]
		if !e.ordered && e.queued {
			return
		}
		q.head++
		p.consumeSlot(i, e)
	}
}

// retireFront removes the ring's front client, whose queue is fully
// consumed; its deficit is forfeited (an idle client must not bank
// service credit).
func (p *RequestPool) retireFront(q *clientQueue) {
	q.inRing = false
	q.deficit = 0
	q.ids = q.ids[:0] // fully consumed; keep the backing array for reuse
	q.head = 0
	p.ring = p.ring[:copy(p.ring, p.ring[1:])]
}

// compact releases the consumed queue prefix once it dominates the
// backing array, keeping amortised O(1) pops without retaining the full
// arrival history.
func (q *clientQueue) compact() {
	if q.head < poolCompactMin || q.head*2 < len(q.ids) {
		return
	}
	n := copy(q.ids, q.ids[q.head:])
	q.ids = q.ids[:n]
	q.head = 0
}

// PendingCount returns how many known requests await ordering. It is O(1):
// the counter is maintained across Add/MarkOrdered/UnmarkOrdered/NextBatch
// instead of scanning the queue.
func (p *RequestPool) PendingCount() int {
	return p.pending
}

// Len returns the number of stored requests.
func (p *RequestPool) Len() int {
	return p.known
}

// queueFootprint sums the arrival queues' backing lengths and consumed
// prefixes (regression tests pin the compaction behaviour with it).
func (p *RequestPool) queueFootprint() (length, head int) {
	for _, q := range p.queues {
		length += len(q.ids)
		head += q.head
	}
	return length, head
}
