package core

import (
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

// RequestPool holds client requests awaiting ordering and execution.
// Clients multicast requests to every order process, so each process
// accumulates its own copy. The pool is owned by its process's event loop
// — the protocol and the replica executing its commits both run there —
// and is not safe for concurrent use. Waiter and batch-full callbacks
// re-enter the pool, so they fire once its own state is settled.
//
// Everything the pool knows about one request — its body, whether it has
// been assigned a sequence number, whether it holds a live place in the
// arrival queue — is one slab entry found by one index lookup; the arrival
// queues hold slab positions, so a dequeue looks nothing up.
//
// The pool has two dequeue disciplines. The default is the single FIFO
// arrival queue the paper implies: strict arrival order, one queue for
// all clients. SetFair switches it to per-client queues drained by
// deficit round robin — each backlogged client earns a byte quantum per
// scheduling round, so one flooding client can no longer push every
// other client's requests arbitrarily far back. Both disciplines keep
// identical counters (pending, pending bytes, batch-full trigger) and
// identical MarkOrdered/UnmarkOrdered semantics.
type RequestPool struct {
	index map[poolKey]uint32 // request → position in slab
	slab  []poolEntry
	free  []uint32 // released slab positions, reused before the slab grows
	known int      // entries holding a body (Len)
	// unordered is the FIFO arrival queue, consumed from head. Popping
	// advances head instead of re-slicing (a re-slice keeps the whole
	// backing array reachable); compact() periodically copies the live
	// tail to the front so the consumed prefix is actually released.
	unordered []uint32
	head      int
	pending   int // queued entries still awaiting ordering (O(1) PendingCount)
	waiters   map[message.ReqID][]func(*message.Request)
	batch     []*message.Request // NextBatch's result, reused by the next call

	// pendingBytes is the estimated batch-wire cost of the pending
	// entries (payload plus per-entry overhead), maintained across
	// Add/MarkOrdered/UnmarkOrdered/NextBatch like pending. targetBytes,
	// lastCost and onTarget implement the adaptive batch close: the
	// pending entries fill a batch once another entry like the last one
	// admitted would no longer fit beside them (BatchFull — NextBatch's
	// own pop rule, so the batch it then pops strands nothing), and when
	// an Add makes that true onTarget fires (after the waiters) so the
	// owning primary can close the batch on the arrival that fills it
	// instead of waiting for its timer. The trigger is edge-based: once
	// full no further Adds fire it until NextBatch drains the pool below a
	// batch again.
	pendingBytes int
	targetBytes  int
	entryExtra   int // per-entry overhead beyond the payload
	lastCost     int // wire cost of the last entry Add admitted
	onTarget     func()

	// Fair-dequeue state (SetFair). queues replaces unordered/head as
	// the arrival structure; ring is the round-robin rotation of
	// backlogged clients; active counts the clients with live pending
	// entries (each clientQueue keeps its own count — the ingress layer's
	// per-client occupancy).
	fair    bool
	quantum int
	queues  map[types.NodeID]*clientQueue
	ring    []types.NodeID
	active  int
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
// arrival) or is still named by an unconsumed arrival-queue slot; it is
// released when none of the three holds.
type poolEntry struct {
	req *message.Request // nil while the body is unknown or was dropped
	id  message.ReqID
	// slots counts the unconsumed arrival-queue slots naming this entry.
	// Usually one; a request dropped and re-added before the dequeue
	// reached its first slot holds two, and is served at the first.
	slots   uint32
	ordered bool // assigned a sequence number, as far as this process knows
	// queued: the entry holds a live place in the arrival queue. Cleared
	// when the dequeue consumes one of its slots or the body is dropped;
	// an ordered entry keeps it (and its slot) until the dequeue gets
	// there, so an UnmarkOrdered before that regains the original place.
	queued bool
	walked bool // Pending's scratch mark
}

// clientQueue is one client's FIFO arrival queue in fair mode, with the
// same head-index + periodic-compaction consumption as the global queue,
// plus its deficit-round-robin account.
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

// NewRequestPool returns an empty pool.
func NewRequestPool() *RequestPool {
	return &RequestPool{
		index:   make(map[poolKey]uint32),
		waiters: make(map[message.ReqID][]func(*message.Request)),
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
// no body, not ordered, no arrival-queue slot left to consume.
func (p *RequestPool) release(i uint32, e *poolEntry) {
	if e.req != nil || e.ordered || e.slots > 0 {
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

// compact releases the consumed queue prefix once it dominates the
// backing array, keeping amortised O(1) pops without retaining the full
// arrival history.
func (p *RequestPool) compact() {
	if p.head < poolCompactMin || p.head*2 < len(p.unordered) {
		return
	}
	n := copy(p.unordered, p.unordered[p.head:])
	p.unordered = p.unordered[:n]
	p.head = 0
}

// enqueue appends a not-yet-ordered entry to the arrival queue (the
// client's own queue in fair mode, the global FIFO otherwise).
func (p *RequestPool) enqueue(i uint32, e *poolEntry) {
	if p.fair {
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
	} else {
		p.unordered = append(p.unordered, i)
	}
	e.slots++
	e.queued = true
	p.pendingDelta(e, 1)
}

// pendingDelta moves the entry into (d = 1) or out of (d = -1) the pending
// counters: pending, pendingBytes and, in fair mode, its client's
// occupancy and with it the backlogged-client count. It must be applied
// symmetrically wherever a pending entry enters or leaves, so the
// counters never drift.
func (p *RequestPool) pendingDelta(e *poolEntry, d int) {
	p.pending += d
	p.pendingBytes += d * p.cost(e)
	if p.fair {
		q := p.queues[e.id.Client]
		if q.pending == 0 {
			p.active++
		}
		if q.pending += d; q.pending == 0 {
			p.active--
		}
	}
}

// SetFair switches the pool to per-client queues with deficit-round-
// robin dequeue. quantum is the service bytes each backlogged client
// earns per scheduling round (values < 1 fall back to 1). Like
// SetBatchTarget it must be installed before traffic flows — the owning
// process does so in Init, with the pool still empty.
func (p *RequestPool) SetFair(quantum int) {
	if quantum < 1 {
		quantum = 1
	}
	p.fair = true
	p.quantum = quantum
	if p.queues == nil {
		p.queues = make(map[types.NodeID]*clientQueue)
	}
}

// ClientPending returns client's live pending entries (0 unless fair
// mode is on — the single-FIFO pool does not keep per-client counts).
func (p *RequestPool) ClientPending(client types.NodeID) int {
	if q := p.queues[client]; q != nil {
		return q.pending
	}
	return 0
}

// ActiveClients returns how many clients currently have pending entries
// (0 unless fair mode is on).
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

// Add stores a request; duplicates are ignored. It reports whether the
// request was new, and fires any WhenAvailable callbacks plus the
// batch-full trigger (both once the entry is in place; they re-enter the
// pool).
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
	if ws := p.waiters[id]; len(ws) > 0 {
		delete(p.waiters, id)
		for _, fn := range ws {
			fn(req)
		}
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

// WhenAvailable calls fn immediately if the request is known, otherwise
// when it arrives. The shadow coordinator uses this to defer value-domain
// validation of an order whose request is still in flight.
func (p *RequestPool) WhenAvailable(id message.ReqID, fn func(*message.Request)) {
	if _, e := p.lookup(id); e != nil && e.req != nil {
		fn(e.req)
		return
	}
	p.waiters[id] = append(p.waiters[id], fn)
}

// Awaited reports whether a WhenAvailable waiter is registered for the
// request — the protocol itself is blocked on this body (a deferred
// shadow endorsement), so admission must not refuse it.
func (p *RequestPool) Awaited(id message.ReqID) bool {
	return len(p.waiters[id]) > 0
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

// Pending returns the requests awaiting ordering, each once, in arrival
// order (in fair mode: client by client in service order, each client's in
// arrival order). It walks the arrival queues, not the pool's history.
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
	for _, i := range p.unordered[p.head:] {
		fn(&p.slab[i])
	}
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
// is available, so an oversized single request still gets ordered. The
// default discipline pops in strict arrival order; in fair mode (SetFair)
// backlogged clients are served deficit-round-robin instead.
//
// The result is a slice the pool owns and reuses: it is valid until the
// next NextBatch, and callers consume it before they return.
func (p *RequestPool) NextBatch(maxBytes, digestSize int) []*message.Request {
	clear(p.batch) // the last batch's requests are not pinned by the slice
	entryMin := EntryOverhead + digestSize
	if p.fair {
		p.batch = p.nextBatchFair(p.batch[:0], maxBytes, entryMin)
		return p.batch
	}
	out := p.batch[:0]
	total := 0
	for p.head < len(p.unordered) {
		i := p.unordered[p.head]
		e := &p.slab[i]
		if e.ordered || !e.queued {
			p.head++
			p.consumeSlot(i, e)
			continue
		}
		cost := len(e.req.Payload) + entryMin
		if len(out) > 0 && total+cost > maxBytes {
			break
		}
		p.head++
		out = append(out, p.pop(i, e))
		total += cost
		if total >= maxBytes {
			break
		}
	}
	p.compact()
	p.batch = out
	return out
}

// nextBatchFair is NextBatch's deficit-round-robin discipline. The ring
// holds every backlogged client; the front client earns one quantum of
// deficit per visit, serves queue-head requests while its deficit covers
// their cost, then rotates to the back. Clients whose queues empty retire
// from the ring with their deficit forfeited. Within one client requests
// still pop in arrival order, so per-client FIFO semantics (and ClientSeq
// monotonicity) are preserved.
func (p *RequestPool) nextBatchFair(out []*message.Request, maxBytes, entryMin int) []*message.Request {
	total := 0
	for len(p.ring) > 0 {
		cid := p.ring[0]
		q := p.queues[cid]
		q.dropStaleHead(p)
		if q.head >= len(q.ids) {
			p.retireFront(q)
			continue
		}
		q.deficit += p.quantum
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

// compact is the per-client analogue of RequestPool.compact.
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

// queueFootprint reports the arrival queue's backing length (regression
// tests pin the compaction behaviour with it). In fair mode it sums the
// per-client queues.
func (p *RequestPool) queueFootprint() (length, head int) {
	if !p.fair {
		return len(p.unordered), p.head
	}
	for _, q := range p.queues {
		length += len(q.ids)
		head += q.head
	}
	return length, head
}
