package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

func fairReq(client int, seq uint64, size int) *message.Request {
	return &message.Request{Client: types.ClientID(client), ClientSeq: seq, Payload: make([]byte, size)}
}

// fairBrute recomputes the fair pool's counters from scratch — pending,
// pending bytes and the per-client occupancy — by walking every client
// queue, so the incremental accounting can be checked against ground
// truth after every mutation.
func fairBrute(p *RequestPool) (pending, bytes int, perClient map[types.NodeID]int) {
	perClient = make(map[types.NodeID]int)
	for _, r := range p.Pending() {
		pending++
		bytes += len(r.Payload) + p.entryExtra
		perClient[r.Client]++
	}
	return pending, bytes, perClient
}

func checkFair(t *testing.T, p *RequestPool, step string) {
	t.Helper()
	pending, bytes, perClient := fairBrute(p)
	if got := p.PendingCount(); got != pending {
		t.Fatalf("%s: PendingCount = %d, brute force = %d", step, got, pending)
	}
	if got := p.PendingBytes(); got != bytes {
		t.Fatalf("%s: PendingBytes = %d, brute force = %d", step, got, bytes)
	}
	if got := p.ActiveClients(); got != len(perClient) {
		t.Fatalf("%s: ActiveClients = %d, brute force = %d", step, got, len(perClient))
	}
	for cid, want := range perClient {
		if got := p.ClientPending(cid); got != want {
			t.Fatalf("%s: ClientPending(%v) = %d, brute force = %d", step, cid, got, want)
		}
	}
	for cid, q := range p.queues {
		if q.pending != perClient[cid] {
			t.Fatalf("%s: queue of %v counts %d pending, brute force = %d", step, cid, q.pending, perClient[cid])
		}
	}
}

// TestPoolFairCountersRandomized hammers the fair pool with a random mix
// of every mutation the protocol performs — adds from many clients,
// duplicate adds, out-of-band ordering, fail-over revival (both stale
// and re-enqueue variants) and batch pops at random byte budgets — and
// after every step checks pending, pending bytes, the per-client
// occupancy and the active-client set against a brute-force recount.
func TestPoolFairCountersRandomized(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			p := NewRequestPool()
			p.SetBatchTarget(1<<20, EntryOverhead+8, func() {})
			p.SetFair(256)
			nextSeq := make(map[int]uint64)
			var added []*message.Request
			for op := 0; op < 2500; op++ {
				step := fmt.Sprintf("seed %d op %d", seed, op)
				switch k := rng.Intn(10); {
				case k < 5: // add a fresh request
					client := rng.Intn(6)
					nextSeq[client]++
					r := fairReq(client, nextSeq[client], rng.Intn(300))
					p.Add(r)
					added = append(added, r)
				case k == 5 && len(added) > 0: // duplicate add
					p.Add(added[rng.Intn(len(added))])
				case k == 6 && len(added) > 0: // order out of band
					p.MarkOrdered(added[rng.Intn(len(added))].ID())
				case k == 7 && len(added) > 0: // fail-over revival
					p.UnmarkOrdered(added[rng.Intn(len(added))].ID())
				default: // pop a batch
					p.NextBatch(1+rng.Intn(4096), 8)
				}
				checkFair(t, p, step)
			}
			// Drain completely; everything must reconcile to zero.
			for p.PendingCount() > 0 {
				if len(p.NextBatch(1024, 8)) == 0 {
					t.Fatal("NextBatch starved with requests pending")
				}
				checkFair(t, p, "drain")
			}
			if p.PendingBytes() != 0 || p.ActiveClients() != 0 || len(p.ring) != 0 {
				t.Fatalf("pool not empty after drain: bytes=%d clients=%d ring=%d",
					p.PendingBytes(), p.ActiveClients(), len(p.ring))
			}
		})
	}
}

// TestPoolFairNoStarvation pins the fairness property the refactor
// exists for: a greedy client that floods the pool first cannot starve
// polite clients. Under strict FIFO the polite requests would wait
// behind the entire greedy backlog; under DRR every polite client must
// be fully served within a small number of batches bounded by its own
// demand over the quantum, with the greedy backlog still mostly queued.
// Per-client FIFO order must survive the round-robin interleaving.
func TestPoolFairNoStarvation(t *testing.T) {
	const (
		quantum    = 256
		digestSize = 8
		reqSize    = 100
		greedyN    = 600
		politeCs   = 4
		politeN    = 12
	)
	p := NewRequestPool()
	p.SetBatchTarget(1<<20, EntryOverhead+digestSize, func() {})
	p.SetFair(quantum)
	// The greedy client's entire backlog arrives before any polite request.
	for i := uint64(1); i <= greedyN; i++ {
		p.Add(fairReq(0, i, reqSize))
	}
	for c := 1; c <= politeCs; c++ {
		for i := uint64(1); i <= politeN; i++ {
			p.Add(fairReq(c, i, reqSize))
		}
	}
	// cost per entry = reqSize + EntryOverhead + digestSize = 132; each
	// batch budget holds 8 entries. With 5 backlogged clients the polite
	// 48 entries are at most ~5/4 of the ~60 entries served by the time
	// they drain, i.e. well within 12 batches.
	const batchBudget = 8 * (reqSize + EntryOverhead + digestSize)
	const batchBound = 12
	lastSeq := make(map[types.NodeID]uint64)
	politeLeft := politeCs * politeN
	batches := 0
	for politeLeft > 0 {
		if batches >= batchBound {
			t.Fatalf("polite clients not drained after %d batches (%d requests waiting)",
				batches, politeLeft)
		}
		batch := p.NextBatch(batchBudget, digestSize)
		if len(batch) == 0 {
			t.Fatal("NextBatch starved with requests pending")
		}
		batches++
		for _, r := range batch {
			if r.ClientSeq <= lastSeq[r.Client] {
				t.Fatalf("per-client FIFO broken: client %v seq %d after %d",
					r.Client, r.ClientSeq, lastSeq[r.Client])
			}
			lastSeq[r.Client] = r.ClientSeq
			if r.Client != types.ClientID(0) {
				politeLeft--
			}
		}
	}
	if greedyPending := p.ClientPending(types.ClientID(0)); greedyPending < greedyN*2/3 {
		t.Fatalf("greedy backlog over-served while polite clients waited: %d of %d left",
			greedyPending, greedyN)
	}
}

// TestPoolFairEqualShares checks the scheduler's steady-state guarantee:
// two clients with identical demand are served within a few requests of
// each other at every batch boundary (DRR's lag is bounded by one
// quantum's worth of requests per client, independent of backlog depth).
func TestPoolFairEqualShares(t *testing.T) {
	const (
		quantum    = 256
		digestSize = 8
		reqSize    = 100
		n          = 300
	)
	p := NewRequestPool()
	p.SetBatchTarget(1<<20, EntryOverhead+digestSize, func() {})
	p.SetFair(quantum)
	for i := uint64(1); i <= n; i++ {
		p.Add(fairReq(0, i, reqSize))
	}
	for i := uint64(1); i <= n; i++ {
		p.Add(fairReq(1, i, reqSize))
	}
	served := map[types.NodeID]int{}
	// One quantum covers ~2 entries; allow a few batches of slack.
	const maxLag = 8
	for p.PendingCount() > 0 {
		batch := p.NextBatch(1024, digestSize)
		if len(batch) == 0 {
			t.Fatal("NextBatch starved with requests pending")
		}
		for _, r := range batch {
			served[r.Client]++
		}
		a, b := served[types.ClientID(0)], served[types.ClientID(1)]
		// Once one side is drained the other legitimately runs ahead.
		if a < n && b < n && (a-b > maxLag || b-a > maxLag) {
			t.Fatalf("service diverged: client0 %d vs client1 %d", a, b)
		}
	}
	if served[types.ClientID(0)] != n || served[types.ClientID(1)] != n {
		t.Fatalf("drain incomplete: %v", served)
	}
}

// TestPoolFairQueueCompaction extends the compaction pin to the
// per-client queues: sustained one-client churn must not retain the
// consumed prefix of the client's backing array.
func TestPoolFairQueueCompaction(t *testing.T) {
	p := NewRequestPool()
	p.SetBatchTarget(1<<20, EntryOverhead+8, func() {})
	p.SetFair(256)
	seq := uint64(0)
	// Keep the client permanently backlogged (retire-on-empty would reset
	// the queue and mask a missing compaction) while popping thousands of
	// entries through it. After every pop the compaction invariant must
	// hold: the consumed prefix is either below the threshold or smaller
	// than the live tail — so retained waste is bounded by the backlog,
	// never by the total arrival history.
	for i := 0; i < 40*poolCompactMin; i++ {
		seq++
		p.Add(fairReq(0, seq, 1))
		if i%2 == 1 {
			if len(p.NextBatch(64, 8)) == 0 {
				t.Fatal("NextBatch starved with requests pending")
			}
			length, head := p.queueFootprint()
			if head >= poolCompactMin && head*2 >= length {
				t.Fatalf("consumed prefix %d of %d uncompacted after pop", head, length)
			}
			if live := length - head; live != p.PendingCount() {
				t.Fatalf("footprint live entries %d != pending %d", live, p.PendingCount())
			}
		}
	}
	// A full drain retires the queue and releases every consumed entry.
	for p.PendingCount() > 0 {
		if len(p.NextBatch(4096, 8)) == 0 {
			t.Fatal("NextBatch starved with requests pending")
		}
	}
	if length, head := p.queueFootprint(); length-head != 0 || length > 0 {
		t.Fatalf("queue retains %d entries (%d live) after full drain", length, length-head)
	}
}
