package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

// modelPool is the reference model the slab pool is tested against: the
// three-map pool RequestPool used to be (one map each for bodies, the
// ordered set and queue membership, ReqIDs in the arrival queues), kept
// verbatim minus its lock, its waiters, its byte trigger and its global
// FIFO queue. Its answers define deficit-round-robin order, the
// stale-slot rule and the counters.
type modelPool struct {
	reqs    map[message.ReqID]*message.Request
	ordered map[message.ReqID]bool
	inQueue map[message.ReqID]bool
	pending int

	pendingBytes int
	entryExtra   int

	queues    map[types.NodeID]*modelQueue
	ring      []types.NodeID
	perClient map[types.NodeID]int
}

type modelQueue struct {
	ids     []message.ReqID
	head    int
	deficit int
	inRing  bool
}

func newModelPool(extra int) *modelPool {
	return &modelPool{
		reqs:       make(map[message.ReqID]*message.Request),
		ordered:    make(map[message.ReqID]bool),
		inQueue:    make(map[message.ReqID]bool),
		entryExtra: extra,
		queues:     make(map[types.NodeID]*modelQueue),
		perClient:  make(map[types.NodeID]int),
	}
}

func (p *modelPool) enqueue(id message.ReqID) {
	q := p.queues[id.Client]
	if q == nil {
		q = &modelQueue{}
		p.queues[id.Client] = q
	}
	q.ids = append(q.ids, id)
	if !q.inRing {
		q.inRing = true
		p.ring = append(p.ring, id.Client)
	}
	p.clientDelta(id.Client, 1)
	p.inQueue[id] = true
	p.pending++
	p.pendingBytes += p.cost(id)
}

func (p *modelPool) clientDelta(client types.NodeID, d int) {
	n := p.perClient[client] + d
	if n <= 0 {
		delete(p.perClient, client)
		return
	}
	p.perClient[client] = n
}

func (p *modelPool) cost(id message.ReqID) int {
	return len(p.reqs[id].Payload) + p.entryExtra
}

func (p *modelPool) add(req *message.Request) bool {
	id := req.ID()
	if _, dup := p.reqs[id]; dup {
		return false
	}
	p.reqs[id] = req
	if !p.ordered[id] && !p.inQueue[id] {
		p.enqueue(id)
	}
	return true
}

func (p *modelPool) drop(id message.ReqID) {
	if p.ordered[id] {
		return
	}
	if _, known := p.reqs[id]; !known {
		return
	}
	if p.inQueue[id] {
		delete(p.inQueue, id)
		p.pending--
		p.pendingBytes -= p.cost(id)
		p.clientDelta(id.Client, -1)
	}
	delete(p.reqs, id)
}

func (p *modelPool) markOrdered(id message.ReqID) {
	if p.ordered[id] {
		return
	}
	p.ordered[id] = true
	if p.inQueue[id] {
		p.pending--
		p.pendingBytes -= p.cost(id)
		p.clientDelta(id.Client, -1)
	}
}

func (p *modelPool) unmarkOrdered(id message.ReqID) {
	if !p.ordered[id] {
		return
	}
	delete(p.ordered, id)
	if _, known := p.reqs[id]; !known {
		return
	}
	if p.inQueue[id] {
		p.pending++
		p.pendingBytes += p.cost(id)
		p.clientDelta(id.Client, 1)
		return
	}
	p.enqueue(id)
}

func (p *modelPool) nextBatch(maxBytes, digestSize int) []*message.Request {
	var (
		out   []*message.Request
		total int
	)
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
			id := q.ids[q.head]
			req := p.reqs[id]
			cost := len(req.Payload) + EntryOverhead + digestSize
			if len(out) > 0 {
				if total+cost > maxBytes {
					return out
				}
				if cost > q.deficit {
					break
				}
			}
			q.head++
			delete(p.inQueue, id)
			p.ordered[id] = true
			p.pending--
			p.pendingBytes -= p.cost(id)
			p.clientDelta(id.Client, -1)
			out = append(out, req)
			total += cost
			if q.deficit -= cost; q.deficit < 0 {
				q.deficit = 0
			}
			if total >= maxBytes {
				return out
			}
		}
		if q.head >= len(q.ids) {
			p.retireFront(q)
			continue
		}
		copy(p.ring, p.ring[1:])
		p.ring[len(p.ring)-1] = cid
	}
	return out
}

func (q *modelQueue) dropStaleHead(p *modelPool) {
	for q.head < len(q.ids) {
		id := q.ids[q.head]
		if !p.ordered[id] && p.inQueue[id] {
			return
		}
		q.head++
		delete(p.inQueue, id)
	}
}

func (p *modelPool) retireFront(q *modelQueue) {
	q.inRing = false
	q.deficit = 0
	q.ids = q.ids[:0]
	q.head = 0
	p.ring = p.ring[:copy(p.ring, p.ring[1:])]
}

// slots lists the unconsumed arrival-queue slots in dequeue order.
func (p *modelPool) slots() []message.ReqID {
	var out []message.ReqID
	for _, cid := range p.ring {
		q := p.queues[cid]
		out = append(out, q.ids[q.head:]...)
	}
	return out
}

// pendingIDs is the model's answer to RequestPool.Pending: the live
// requests at their first slot, in dequeue order.
func (p *modelPool) pendingIDs() []message.ReqID {
	var out []message.ReqID
	seen := make(map[message.ReqID]bool)
	for _, id := range p.slots() {
		if p.inQueue[id] && !p.ordered[id] && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// tracked is how many requests the model still knows anything about: a
// body, an ordered mark or an unconsumed slot. The slab pool must hold
// exactly that many entries — anything more is a leak, anything less lost
// state.
func (p *modelPool) tracked() int {
	ids := make(map[message.ReqID]bool)
	for id := range p.reqs {
		ids[id] = true
	}
	for id := range p.ordered {
		ids[id] = true
	}
	for _, id := range p.slots() {
		ids[id] = true
	}
	return len(ids)
}

// TestPoolMatchesThreeMapModel drives the slab pool and the three-map
// model with the same random Add / duplicate Add / MarkOrdered /
// UnmarkOrdered / Drop / NextBatch stream — over an ID space small enough
// that drops are re-added, marks arrive ahead of bodies and slots go stale
// and revive — and holds every batch (same request objects, same order)
// and every counter to the model's.
func TestPoolMatchesThreeMapModel(t *testing.T) {
	const (
		clients    = 4
		seqs       = 40
		digestSize = 8
		extra      = EntryOverhead + digestSize
	)
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p, m := NewRequestPool(), newModelPool(extra)
			p.SetBatchTarget(1<<20, extra, func() {})
			// Odd seeds pop often and drain the queues again and again;
			// even seeds pop rarely, so a backlog of some fifty requests
			// builds and slots go stale, double up and revive deep inside
			// it.
			mix, maxBudget := [4]int{7, 9, 12, 14}, 700
			if seed%2 == 0 {
				mix, maxBudget = [4]int{6, 7, 11, 15}, 500
			}
			randID := func() message.ReqID {
				return message.ReqID{Client: types.ClientID(rng.Intn(clients)), ClientSeq: uint64(1 + rng.Intn(seqs))}
			}
			for op := 0; op < 6000; op++ {
				id := randID()
				step := fmt.Sprintf("op %d", op)
				switch k := rng.Intn(16); {
				case k < mix[0]:
					r := &message.Request{Client: id.Client, ClientSeq: id.ClientSeq, Payload: make([]byte, rng.Intn(300))}
					step += fmt.Sprintf(" Add(%v)", id)
					if got, want := p.Add(r), m.add(r); got != want {
						t.Fatalf("%s = %v, model %v", step, got, want)
					}
				case k < mix[1]:
					step += fmt.Sprintf(" MarkOrdered(%v)", id)
					p.MarkOrdered(id)
					m.markOrdered(id)
				case k < mix[2]:
					step += fmt.Sprintf(" UnmarkOrdered(%v)", id)
					p.UnmarkOrdered(id)
					m.unmarkOrdered(id)
				case k < mix[3]:
					step += fmt.Sprintf(" Drop(%v)", id)
					p.Drop(id)
					m.drop(id)
				default:
					budget := 1 + rng.Intn(maxBudget)
					step += fmt.Sprintf(" NextBatch(%d)", budget)
					got, want := p.NextBatch(budget, digestSize), m.nextBatch(budget, digestSize)
					if len(got) != len(want) {
						t.Fatalf("%s: %d entries, model %d", step, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: entry %d is %v, model %v", step, i, got[i].ID(), want[i].ID())
						}
					}
				}
				if got, want := p.PendingCount(), m.pending; got != want {
					t.Fatalf("%s: PendingCount = %d, model %d", step, got, want)
				}
				if got, want := p.PendingBytes(), m.pendingBytes; got != want {
					t.Fatalf("%s: PendingBytes = %d, model %d", step, got, want)
				}
				if got, want := p.Len(), len(m.reqs); got != want {
					t.Fatalf("%s: Len = %d, model %d", step, got, want)
				}
				if got, want := p.ActiveClients(), len(m.perClient); got != want {
					t.Fatalf("%s: ActiveClients = %d, model %d", step, got, want)
				}
				for c := 0; c < clients; c++ {
					cid := types.ClientID(c)
					if got, want := p.ClientPending(cid), m.perClient[cid]; got != want {
						t.Fatalf("%s: ClientPending(%v) = %d, model %d", step, cid, got, want)
					}
				}
				probe := randID()
				if got, want := p.IsOrdered(probe), m.ordered[probe]; got != want {
					t.Fatalf("%s: IsOrdered(%v) = %v, model %v", step, probe, got, want)
				}
				if got, _ := p.Get(probe); got != m.reqs[probe] {
					t.Fatalf("%s: Get(%v) = %v, model %v", step, probe, got, m.reqs[probe])
				}
				pending, want := p.Pending(), m.pendingIDs()
				if len(pending) != len(want) {
					t.Fatalf("%s: Pending lists %d requests, model %d", step, len(pending), len(want))
				}
				for i := range want {
					if pending[i].ID() != want[i] {
						t.Fatalf("%s: Pending[%d] = %v, model %v", step, i, pending[i].ID(), want[i])
					}
				}
				if got, want := len(p.index), m.tracked(); got != want {
					t.Fatalf("%s: pool holds %d entries, model tracks %d requests", step, got, want)
				}
			}
			if got, want := len(p.index)+len(p.free), len(p.slab); got != want {
				t.Fatalf("slab of %d entries has %d indexed + %d free", want, len(p.index), len(p.free))
			}
		})
	}
}
