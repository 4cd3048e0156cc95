package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/harness"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

// request is one submission followed from its due instant to the commit
// event of each order process. Instants are nanoseconds since the
// tracker's epoch; 0 means "not yet".
type request struct {
	id     message.ReqID
	client int
	// op is the first attempt of the operation this submission belongs to
	// (itself, unless it is a retry). Latency and completion are the
	// operation's: due instant of the first attempt to the earliest f+1
	// commit of any attempt.
	op *request

	due      int64
	sent     int64 // generator woke up and called Submit
	submit   int64 // nanoseconds spent inside Cluster.Submit
	measured bool  // due inside the measured window
	sampled  bool  // traced pass: spans are kept for this request
	span     int   // ID of its request span within the tracker, 0 if none
	retried  bool

	at     [numProcs]int64 // commit instant per order process
	n      int             // distinct processes that committed it
	quorum int64           // instant of the (f+1)-th process's commit
	done   int64           // op only: earliest quorum over its attempts
}

// tracker joins what the generators sent with what the Recorder's commit
// stream shows. Generators register requests; the single poller applies
// commit events, hands closed-loop tokens back and runs the output check.
type tracker struct {
	c     *harness.Cluster
	epoch time.Time
	probe message.ReqID // boot's probe request: committed, never registered

	mu      sync.Mutex
	reqs    map[message.ReqID]*request
	sent    []*request // registration order
	retryAt int        // sent[:retryAt] have been examined for retry
	order   map[types.Seq]message.ReqID
	// violations are output-check failures: order divergence, or commit
	// events lost to ring eviction (the poller fell behind).
	violations []string
	cursor     uint64
	spans      []span // traced pass only

	tokens [clients]chan struct{} // closed loop: one token per free slot
}

func newTracker(c *harness.Cluster, epoch time.Time, probe message.ReqID, outstanding int) *tracker {
	t := &tracker{
		c:     c,
		epoch: epoch,
		probe: probe,
		reqs:  make(map[message.ReqID]*request),
		order: make(map[types.Seq]message.ReqID),
	}
	for k := range t.tokens {
		t.tokens[k] = make(chan struct{}, outstanding) // one slot per request in flight
		for i := 0; i < outstanding; i++ {
			t.tokens[k] <- struct{}{}
		}
	}
	t.cursor = c.Events.CommitCursor()
	return t
}

func (t *tracker) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// register records a submission. The poller may already have seen its
// commits (Submit returns after the request is on its way), in which case
// the placeholder it made is completed here.
func (t *tracker) register(r *request) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if early, ok := t.reqs[r.id]; ok {
		r.at, r.n, r.quorum = early.at, early.n, early.quorum
	}
	t.reqs[r.id] = r
	t.sent = append(t.sent, r)
	if r.sampled {
		t.openSpans(r)
	}
	if r.quorum != 0 {
		t.complete(r)
	}
}

// complete marks r's operation done at r's quorum instant and, on the
// closed loop, frees the client's slot. Caller holds t.mu.
func (t *tracker) complete(r *request) {
	op := r.op
	if op == nil {
		return // not registered yet; register completes it
	}
	if op.done == 0 {
		op.done = r.quorum
		select {
		case t.tokens[op.client] <- struct{}{}:
		default: // open loop, or a retry's duplicate completion
		}
	} else if r.quorum < op.done {
		op.done = r.quorum
	}
}

// poll applies every commit event since the last call. The poller is the
// commit stream's only consumer, so it also moves the Recorder's prune
// watermark, as the replica drain does in the public API.
func (t *tracker) poll() {
	events, next, dropped := t.c.Events.CommitsSince(t.cursor)
	t.c.Events.PruneCommittedBelow(next)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cursor = next
	if dropped > 0 {
		t.violations = append(t.violations, fmt.Sprintf("%d commit events evicted before the poller read them", dropped))
	}
	for i := range events {
		t.apply(&events[i])
	}
}

func (t *tracker) apply(ev *core.CommitEvent) {
	node := int(ev.Node)
	if node < 0 || node >= numProcs {
		t.violations = append(t.violations, fmt.Sprintf("commit event from unknown process %v", ev.Node))
		return
	}
	at := t.since(ev.At)
	for i, e := range ev.Entries {
		seq := ev.FirstSeq + types.Seq(i)
		if prev, ok := t.order[seq]; !ok {
			t.order[seq] = e.Req
		} else if prev != e.Req {
			t.violations = append(t.violations, fmt.Sprintf(
				"order divergence at seq %d: %v and %v (second seen at process %v)", seq, prev, e.Req, ev.Node))
		}
		r := t.reqs[e.Req]
		if r == nil {
			r = &request{id: e.Req}
			t.reqs[e.Req] = r
		}
		if r.at[node] != 0 {
			continue
		}
		r.at[node] = at
		r.n++
		if r.span != 0 {
			t.commitSpan(r, node, at)
		}
		if r.n == quorum {
			r.quorum = at
			t.complete(r)
		}
	}
}

// overdue returns the registered first attempts whose operation has been
// waiting longer than wait and has not been retried, each at most once.
func (t *tracker) overdue(now int64, wait time.Duration) []*request {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*request
	for t.retryAt < len(t.sent) {
		r := t.sent[t.retryAt]
		if now-r.sent < int64(wait) {
			break
		}
		t.retryAt++
		if r.op == r && r.done == 0 {
			r.retried = true
			out = append(out, r)
		}
	}
	return out
}

// generator drives one client. Payload bytes come from its own seeded
// source, so a seed fixes every input the cluster sees.
type generator struct {
	t      *tracker
	w      workload
	client int
	rng    *rand.Rand
	trace  bool
	wStart time.Time // measured window
	wEnd   time.Time
}

func (g *generator) submit(due time.Time, op *request) {
	payload := make([]byte, g.w.ReqBytes)
	g.rng.Read(payload)
	woke := time.Now()
	// Submit names the request even when it refuses it (the client node is
	// gone); a refused request never commits and so counts as failed.
	id, _ := g.t.c.Submit(g.client, payload)
	inside := time.Since(woke)
	r := &request{
		id:       id,
		client:   g.client,
		due:      g.t.since(due),
		sent:     g.t.since(woke),
		submit:   int64(inside),
		measured: !due.Before(g.wStart) && due.Before(g.wEnd),
	}
	r.op = r
	if op != nil {
		r.op, r.due, r.measured = op, op.due, false
	}
	// Span recording alternates by slice, so the traced pass carries its
	// own untraced control (loadgen.trace_overhead_pct).
	if g.trace && r.op == r && id.ClientSeq%sampleEvery == 0 && sliceOf(due.Sub(g.wStart))%2 == 0 {
		r.sampled = true
	}
	g.t.register(r)
}

func sliceOf(d time.Duration) int { return int(d / sliceLen) }

// open sends on a fixed schedule: client k owns every clients-th slot of
// the total rate, starting at slot. A late send is sent at once and its
// lateness recorded; none is skipped, and latency runs from the due
// instant either way.
func (g *generator) open(start time.Time, slot int) {
	period := time.Second / time.Duration(g.w.Rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i*clients+slot) * period)
		if !due.Before(g.wEnd) {
			return
		}
		time.Sleep(time.Until(due))
		g.submit(due, nil)
	}
}

// closed keeps Outstanding requests in flight: the next is sent when an
// earlier one of this client reaches f+1 commits.
func (g *generator) closed() {
	stop := time.NewTimer(time.Until(g.wEnd))
	defer stop.Stop()
	for {
		select {
		case <-g.t.tokens[g.client]:
			g.submit(time.Now(), nil)
		case <-stop.C:
			return
		}
	}
}
