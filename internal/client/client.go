package client

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// defaultBackoff stands in for a Rejected that carries no RetryAfter hint.
const defaultBackoff = 100 * time.Millisecond

// Load is the open-loop generator: every Interval the client asks Payload
// for its i-th request (i counts from 0) and submits what it returns. A
// nil payload skips the tick — in a sharded deployment each group's client
// runs the same generator and submits only the keys its group orders.
// Count 0 means unlimited.
type Load struct {
	Interval time.Duration
	Count    int
	Payload  func(i int) []byte
}

// Config describes one client endpoint of one ordering group.
type Config struct {
	ID types.NodeID
	// Targets are the group's order processes: every request goes to all
	// of them and only they may vouch for it.
	Targets []types.NodeID
	// Seq is the identity's ClientSeq counter, shared by its per-group
	// clients so a request ID never repeats across groups. The host seeds
	// it: order processes pool a request ID once and never forget it, so
	// an incarnation that reused its predecessor's IDs would be ignored.
	Seq  *atomic.Uint64
	Load *Load
	// Need is how many distinct order processes must vouch for a request
	// before it is accepted (f+1). Zero is fire-and-forget: replies are
	// not expected and nothing is tracked.
	Need int
	// Retries bounds the resubmissions of one request refused at
	// admission; Seed feeds the backoff jitter.
	Retries int
	Seed    int64
}

type outcome uint8

const (
	pending outcome = iota
	accepted
	shed
	superseded
)

// request is one tracked submission. Its outcome is recorded once.
type request struct {
	payload []byte
	attempt int // 0 for a first submission
	at      time.Time
	signers []types.NodeID // order processes whose Reply verified
	outcome outcome
	backoff bool // a retry timer is armed
}

// Summary classifies a client's submissions. Submitted counts retries as
// submissions of their own, so with replies expected Submitted = Accepted
// + Shed + Retried + Pending; fire-and-forget, only Submitted moves.
type Summary struct {
	Submitted int
	Observed  int // at least one verified reply
	Accepted  int // Need distinct signers
	Shed      int // refused at admission, retry budget spent
	Retried   int // superseded by a resubmission of the same payload
	Pending   int
	BadSig    int // replies and rejections whose signature failed
	// Rejects counts the verified Rejected messages consumed, by code.
	Rejects map[ingress.Code]int
	// First and Quorum are submit-to-first-reply and submit-to-Need-th-
	// reply latencies, on the client's own clock.
	First, Quorum []time.Duration
}

// Add folds another group's summary into s.
func (s *Summary) Add(o Summary) {
	s.Submitted += o.Submitted
	s.Observed += o.Observed
	s.Accepted += o.Accepted
	s.Shed += o.Shed
	s.Retried += o.Retried
	s.Pending += o.Pending
	s.BadSig += o.BadSig
	for code, n := range o.Rejects {
		if s.Rejects == nil {
			s.Rejects = make(map[ingress.Code]int)
		}
		s.Rejects[code] += n
	}
	s.First = append(s.First, o.First...)
	s.Quorum = append(s.Quorum, o.Quorum...)
}

// Client is the client reactor. Everything but NextID, Queue, Drain,
// Unqueue, Halt, Rejected and Done belongs to its event loop.
type Client struct {
	cfg   Config
	ticks int

	// rejected counts verified Rejected messages; hosts read it while the
	// loop runs.
	rejected atomic.Uint64

	sum  Summary
	done chan struct{}

	// slab is what the Requests the client signs are carved from. They
	// share a fate: each is multicast and dropped, or pooled by every
	// order process where the substrate hands over the struct itself.
	slab message.Slab[message.Request]

	// Submissions hosts queue for the loop (Queue): mu guards queued and
	// halted; spare, the array the last drain emptied, is the loop's, and
	// drain is bound once, in New, so queueing costs no closure.
	mu     sync.Mutex
	queued []submission
	halted bool
	spare  []submission
	drain  func(runtime.Env)

	// Tracking state, nil when cfg.Need is 0. A request leaves reqs when
	// it is accepted.
	reqs map[uint64]*request
	rng  *rand.Rand
}

var _ runtime.Process = (*Client)(nil)

// New returns a client for cfg.
func New(cfg Config) *Client {
	c := &Client{cfg: cfg, done: make(chan struct{})}
	c.drain = c.drainQueued
	if cfg.Need > 0 {
		c.reqs = make(map[uint64]*request)
		c.rng = rand.New(rand.NewSource(cfg.Seed))
		c.sum.Rejects = make(map[ingress.Code]int)
	}
	return c
}

// NextID draws the next request ID of the client's identity. Safe for
// concurrent use.
func (c *Client) NextID() message.ReqID {
	return message.ReqID{Client: c.cfg.ID, ClientSeq: c.cfg.Seq.Add(1)}
}

// Rejected reports how many verified Rejected messages the client has
// received. Safe for concurrent use.
func (c *Client) Rejected() uint64 { return c.rejected.Load() }

// Done is closed once the generator has run out and no tracked submission
// is pending. It never closes without a finite Load.
func (c *Client) Done() <-chan struct{} { return c.done }

// Summary snapshots the tally; call it on the event loop or after the
// host has stopped it.
func (c *Client) Summary() Summary {
	s := c.sum
	s.Pending = c.open()
	return s
}

// open is how many tracked submissions have no outcome yet.
func (c *Client) open() int {
	if c.reqs == nil {
		return 0
	}
	return c.sum.Submitted - c.sum.Accepted - c.sum.Shed - c.sum.Retried
}

// Init implements runtime.Process.
func (c *Client) Init(env runtime.Env) {
	if c.cfg.Load != nil && c.cfg.Load.Interval > 0 {
		c.scheduleNext(env)
	}
}

func (c *Client) scheduleNext(env runtime.Env) {
	env.SetTimer(c.cfg.Load.Interval, func() { c.tick(env) })
}

func (c *Client) tick(env runtime.Env) {
	if payload := c.cfg.Load.Payload(c.ticks); payload != nil {
		c.Submit(env, c.NextID().ClientSeq, payload)
	}
	c.ticks++
	if c.cfg.Load.Count > 0 && c.ticks >= c.cfg.Load.Count {
		c.checkDone()
		return
	}
	c.scheduleNext(env)
}

// Submit signs one request under a ClientSeq drawn from NextID and
// multicasts it to the group's order processes.
func (c *Client) Submit(env runtime.Env, seq uint64, payload []byte) {
	c.submit(env, seq, payload, 0)
}

// submission is one queued Submit.
type submission struct {
	seq     uint64
	payload []byte
}

// Queue draws the next request ID and queues a submission of payload under
// it for the client's event loop; the host then injects Drain into that
// loop, once per Queue. The first drain to run submits everything queued,
// in call order, and the rest find nothing to do, so a submission costs an
// event but no closure. A halted client queues nothing. Safe for
// concurrent use.
func (c *Client) Queue(payload []byte) message.ReqID {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.NextID()
	if !c.halted {
		c.queued = append(c.queued, submission{id.ClientSeq, payload})
	}
	return id
}

// Drain returns the function that submits what is queued, bound once: the
// event a host injects after each Queue.
func (c *Client) Drain() func(runtime.Env) { return c.drain }

// Unqueue drops the submission queued under id, for a host that could not
// inject its drain, and reports whether it was still queued: false means a
// drain injected for another submission has already submitted it. Safe for
// concurrent use.
func (c *Client) Unqueue(id message.ReqID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := slices.IndexFunc(c.queued, func(s submission) bool { return s.seq == id.ClientSeq })
	if i < 0 {
		return false
	}
	c.queued = slices.Delete(c.queued, i, i+1)
	return true
}

// Halt makes the client queue nothing from now on and drops what is
// queued, for a host whose node crashed: a crashed loop runs no drain, so
// a queued payload would stay pinned for good. Safe for concurrent use.
func (c *Client) Halt() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.halted = true
	clear(c.queued)
	c.queued = c.queued[:0]
}

// drainQueued submits everything queued, in order. It runs on the loop,
// which swaps the queue's two arrays as the engine swaps its event queue's,
// so a steady stream of submissions allocates none.
func (c *Client) drainQueued(env runtime.Env) {
	c.mu.Lock()
	batch := c.queued
	c.queued = c.spare[:0]
	c.mu.Unlock()
	for i := range batch {
		c.Submit(env, batch[i].seq, batch[i].payload)
		batch[i] = submission{} // a sent payload must not stay pinned by the array
	}
	c.spare = batch[:0]
}

func (c *Client) submit(env runtime.Env, seq uint64, payload []byte, attempt int) {
	req := c.slab.New()
	*req = message.Request{Client: c.cfg.ID, ClientSeq: seq, Payload: payload}
	if err := message.Sign(env, req, &req.Sig); err != nil {
		env.Logf("client: signing request: %v", err)
		return
	}
	c.sum.Submitted++
	if c.reqs != nil {
		c.reqs[seq] = &request{payload: payload, attempt: attempt, at: env.Now()}
	}
	env.Multicast(c.cfg.Targets, req)
}

// Receive implements runtime.Process. A Reply or Rejected counts only when
// the order process that sent it is the one it names and the one that
// signed it: a node may not speak for another, and a client not at all.
func (c *Client) Receive(env runtime.Env, from types.NodeID, m message.Message) {
	switch m := m.(type) {
	case *message.Reply:
		if c.reqs != nil && c.vouched(env, from, m.From, m.Client, m) {
			c.onReply(env, m)
		}
	case *message.Rejected:
		if c.vouched(env, from, m.From, m.Client, m) {
			c.rejected.Add(1)
			if c.reqs != nil {
				c.onRejected(env, m)
			}
		}
	}
}

func (c *Client) vouched(env runtime.Env, from, signer, client types.NodeID,
	m interface{ VerifySig(message.Verifier) error }) bool {
	if signer != from || client != c.cfg.ID || !slices.Contains(c.cfg.Targets, from) {
		return false
	}
	if err := m.VerifySig(env); err != nil {
		c.sum.BadSig++
		return false
	}
	return true
}

func (c *Client) onReply(env runtime.Env, m *message.Reply) {
	r := c.reqs[m.ClientSeq]
	if r == nil || slices.Contains(r.signers, m.From) {
		return // someone else's run, or a signer heard already (resume replay)
	}
	r.signers = append(r.signers, m.From)
	if len(r.signers) == 1 {
		c.sum.Observed++
		c.sum.First = append(c.sum.First, env.Now().Sub(r.at))
	}
	if len(r.signers) == c.cfg.Need && r.outcome == pending {
		c.sum.Quorum = append(c.sum.Quorum, env.Now().Sub(r.at))
		// Accepted is final: a later reply or rejection finds no entry and
		// is ignored, as a replayed signer's is.
		delete(c.reqs, m.ClientSeq)
		c.settle(r, accepted)
	}
}

// onRejected consumes one node's backpressure signal. Admission runs on
// every node, so one refused request can draw a Rejected from each of
// them, and only the proposer's admission gates ordering: the request is
// retried once per round of rejections, after the node's hint plus up to
// half as much jitter (a herd of refused clients must not return in
// lockstep), and not at all if its quorum lands first.
func (c *Client) onRejected(env runtime.Env, m *message.Rejected) {
	c.sum.Rejects[ingress.Code(m.Code)]++
	r := c.reqs[m.ClientSeq]
	if r == nil || r.outcome != pending || r.backoff {
		return
	}
	if r.attempt >= c.cfg.Retries {
		c.settle(r, shed)
		return
	}
	backoff := m.RetryAfter
	if backoff <= 0 {
		backoff = defaultBackoff
	}
	backoff += time.Duration(c.rng.Int63n(int64(backoff/2) + 1))
	r.backoff = true
	env.SetTimer(backoff, func() {
		r.backoff = false
		if r.outcome != pending {
			return // the quorum landed during the backoff
		}
		// The retry carries the payload forward under a fresh request ID;
		// it is submitted before the original settles so Done cannot
		// close in between.
		c.submit(env, c.NextID().ClientSeq, r.payload, r.attempt+1)
		c.settle(r, superseded)
	})
}

// settle records r's outcome; callers have checked it is still pending.
func (c *Client) settle(r *request, o outcome) {
	r.outcome = o
	switch o {
	case accepted:
		c.sum.Accepted++
	case shed:
		c.sum.Shed++
	case superseded:
		c.sum.Retried++
	}
	c.checkDone()
}

func (c *Client) checkDone() {
	l := c.cfg.Load
	if l == nil || l.Count == 0 || c.ticks < l.Count || c.open() > 0 {
		return
	}
	select {
	case <-c.done:
	default:
		close(c.done)
	}
}
