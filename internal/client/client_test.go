package client_test

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/client"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/des"
	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/node"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

const f = 1

var me = types.ClientID(0)

// world is one virtual-time deployment: a SimCluster whose order processes
// are either assembled by node.Build (newCluster) or silent sinks the test
// speaks for (newScript), plus whatever client processes the test hosts.
type world struct {
	t      *testing.T
	topo   types.Topology
	idents map[types.NodeID]*crypto.Identity
	sched  *des.Scheduler
	fabric *netsim.Fabric
	sim    *runtime.SimCluster
	sinks  map[types.NodeID]*sink
}

func newWorld(t *testing.T, proto types.Protocol) *world {
	t.Helper()
	topo, err := types.NewTopology(proto, f)
	if err != nil {
		t.Fatal(err)
	}
	dealt, err := node.DealFromSecret(crypto.HMACSHA256, "client-test", topo, false, false)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{t: t, topo: topo, idents: dealt.Idents, sched: des.New(des.Epoch)}
	w.fabric = netsim.New(netsim.LANDefaults(), topo, 1)
	w.sim = runtime.NewSimCluster(w.sched, w.fabric)
	return w
}

func (w *world) add(id types.NodeID, p runtime.Process) {
	w.t.Helper()
	if err := w.sim.AddNode(id, w.idents[id], p); err != nil {
		w.t.Fatal(err)
	}
}

// newCluster is a deployment of real order processes, each assembled by
// node.Build from a spec whose reply-to set is replyTo.
func newCluster(t *testing.T, proto types.Protocol, replyTo map[types.NodeID]bool) *world {
	w := newWorld(t, proto)
	for _, id := range w.topo.AllProcesses() {
		n, err := node.Build(node.Spec{
			Self: id, Protocol: proto, Topo: w.topo, Groups: 1, Idents: w.idents,
			BatchInterval: 5 * time.Millisecond, MaxBatchBytes: 1024,
			Delta: time.Second, RecoveryInterval: time.Second,
			ReplyTo: replyTo,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		w.add(id, n.Procs[0])
	}
	return w
}

// sink is a silent order process: it records the requests it is sent and
// says nothing, so the test decides who vouches for what and when.
type sink struct {
	at   []time.Time
	reqs []*message.Request
}

func (s *sink) Init(runtime.Env) {}

func (s *sink) Receive(env runtime.Env, _ types.NodeID, m message.Message) {
	if req, ok := m.(*message.Request); ok {
		s.at, s.reqs = append(s.at, env.Now()), append(s.reqs, req)
	}
}

func newScript(t *testing.T) *world {
	w := newWorld(t, types.SC)
	w.sinks = make(map[types.NodeID]*sink)
	for _, id := range w.topo.AllProcesses() {
		w.sinks[id] = new(sink)
		w.add(id, w.sinks[id])
	}
	return w
}

// client hosts a tracking client that submits count requests, one per
// millisecond, with ClientSeqs from first+1.
func (w *world) client(first uint64, count, retries int) *client.Client {
	seq := new(atomic.Uint64)
	seq.Store(first)
	return client.New(client.Config{
		ID: me, Targets: w.topo.AllProcesses(), Seq: seq, Need: f + 1, Retries: retries, Seed: 7,
		Load: &client.Load{Interval: time.Millisecond, Count: count,
			Payload: func(i int) []byte { return []byte{'r', byte(i)} }},
	})
}

// as runs fn on id's event loop, with id's identity.
func (w *world) as(id types.NodeID, fn func(env runtime.Env)) {
	w.t.Helper()
	if err := w.sim.Inject(id, fn); err != nil {
		w.t.Fatal(err)
	}
}

// reply makes node `from` send the client a Reply for seq that names
// `named` as its author; tamper, when set, edits it after signing (the
// signed body is memoized by then, so only the signature can change).
func (w *world) reply(from, named types.NodeID, seq uint64, tamper func(*message.Reply)) {
	w.as(from, func(env runtime.Env) {
		rep := &message.Reply{From: named, Client: me, ClientSeq: seq, Seq: 1}
		sig, err := message.SignSingle(env, rep.SignedBody())
		if err != nil {
			w.t.Error(err)
		}
		rep.Sig = sig
		if tamper != nil {
			tamper(rep)
		}
		env.Send(me, rep)
	})
	w.sched.RunFor(time.Millisecond)
}

// reject makes node from refuse seq with the given retry hint.
func (w *world) reject(from types.NodeID, seq uint64, retryAfter time.Duration) {
	w.as(from, func(env runtime.Env) {
		rej := &message.Rejected{From: from, Client: me, ClientSeq: seq,
			Code: uint8(ingress.RateLimited), RetryAfter: retryAfter}
		sig, err := message.SignSingle(env, rej.SignedBody())
		if err != nil {
			w.t.Error(err)
		}
		rej.Sig = sig
		env.Send(me, rej)
	})
	w.sched.RunFor(time.Millisecond)
}

func isDone(c *client.Client) bool {
	select {
	case <-c.Done():
		return true
	default:
		return false
	}
}

// TestAcceptsAtFPlusOneDistinctSigners: f matching replies do not complete
// a request; a duplicate signer, a reply naming a node other than its
// sender, a reply whose signature does not verify and a reply from a
// client identity never count; the (f+1)-th distinct order process does.
func TestAcceptsAtFPlusOneDistinctSigners(t *testing.T) {
	w := newScript(t)
	c := w.client(100, 1, 0)
	w.add(me, c)
	other := types.ClientID(1)
	w.add(other, new(sink))
	w.sim.Start()
	w.sched.RunFor(2 * time.Millisecond)
	const seq = 101

	w.reply(0, 0, seq, nil)
	if s := c.Summary(); s.Observed != 1 || s.Accepted != 0 || isDone(c) {
		t.Fatalf("after f replies: %+v done=%v, want observed and still pending", s, isDone(c))
	}
	w.reply(0, 0, seq, nil) // the same signer again
	w.reply(1, 2, seq, nil) // node 1 speaking for node 2
	var lifted crypto.Signature
	w.reply(2, 2, seq+1, func(r *message.Reply) { lifted = r.Sig })
	w.reply(2, 2, seq, func(r *message.Reply) { r.Sig = lifted }) // node 2's signature, of another reply
	w.reply(3, 3, seq, func(r *message.Reply) { r.Sig[0] ^= 1 })  // forged signature
	w.reply(other, other, seq, nil)                               // a client vouching
	if s := c.Summary(); s.Accepted != 0 || s.Pending != 1 || s.BadSig != 2 || isDone(c) {
		t.Fatalf("after replies that must not count: %+v done=%v", s, isDone(c))
	}
	w.reply(3, 3, seq, nil)
	if s := c.Summary(); s.Accepted != 1 || s.Pending != 0 || len(s.Quorum) != 1 || !isDone(c) {
		t.Fatalf("after the (f+1)-th distinct signer: %+v done=%v", s, isDone(c))
	}
}

// TestRejectedRetriedAfterHintAtMostRetries: a refused request is
// resubmitted under a fresh ID no earlier than the node's RetryAfter hint
// (and no later than the hint plus half of it in jitter), at most Retries
// times, and then settles as shed.
func TestRejectedRetriedAfterHintAtMostRetries(t *testing.T) {
	w := newScript(t)
	c := w.client(100, 1, 2)
	w.add(me, c)
	w.sim.Start()
	w.sched.RunFor(2 * time.Millisecond)
	const hint = 50 * time.Millisecond
	seen := w.sinks[0]
	for attempt := 1; attempt <= 3; attempt++ {
		if len(seen.reqs) != attempt {
			t.Fatalf("node 0 holds %d submissions before rejection %d", len(seen.reqs), attempt)
		}
		last := seen.reqs[attempt-1]
		rejectedAt := w.sched.Now()
		w.reject(0, last.ClientSeq, hint)
		w.sched.RunFor(2 * hint)
		if attempt == 3 {
			break // the budget is spent: nothing follows
		}
		if len(seen.reqs) != attempt+1 {
			t.Fatalf("rejection %d drew %d resubmissions, want 1", attempt, len(seen.reqs)-attempt)
		}
		retry := seen.reqs[attempt]
		if retry.ClientSeq == last.ClientSeq || !bytes.Equal(retry.Payload, last.Payload) {
			t.Errorf("retry %v of %v: want a fresh ID carrying the same payload", retry.ID(), last.ID())
		}
		if wait := seen.at[attempt].Sub(rejectedAt); wait < hint || wait > hint+hint/2+time.Millisecond {
			t.Errorf("retry %d came %v after the rejection, want within [%v, %v]", attempt, wait, hint, hint+hint/2)
		}
	}
	if len(seen.reqs) != 3 {
		t.Errorf("%d submissions reached node 0 with Retries 2, want 3", len(seen.reqs))
	}
	if s := c.Summary(); s.Submitted != 3 || s.Retried != 2 || s.Shed != 1 || s.Pending != 0 || !isDone(c) {
		t.Errorf("summary %+v done=%v, want 3 submitted = 2 retried + 1 shed", s, isDone(c))
	}
}

// TestRequestSettlesOnce: admission runs on every node, so an exhausted
// request draws a Rejected from each of them — it is shed once, not once
// per node — and a Rejected for an original its retry already superseded
// (a slow node, a resume replay) schedules nothing.
func TestRequestSettlesOnce(t *testing.T) {
	t.Run("exhausted request rejected by every node", func(t *testing.T) {
		w := newScript(t)
		c := w.client(100, 1, 0)
		w.add(me, c)
		w.sim.Start()
		w.sched.RunFor(2 * time.Millisecond)
		for _, id := range w.topo.AllProcesses() {
			w.reject(id, 101, time.Millisecond)
		}
		if s := c.Summary(); s.Shed != 1 || s.Pending != 0 || s.Submitted != 1 || s.Rejects[ingress.RateLimited] != w.topo.N() {
			t.Errorf("summary %+v, want one request shed once on %d rejections", s, w.topo.N())
		}
	})
	t.Run("late rejection of a superseded original", func(t *testing.T) {
		w := newScript(t)
		c := w.client(100, 1, 3)
		w.add(me, c)
		w.sim.Start()
		w.sched.RunFor(2 * time.Millisecond)
		w.reject(0, 101, 10*time.Millisecond)
		w.sched.RunFor(20 * time.Millisecond) // the retry goes out as 102
		w.reject(1, 101, 10*time.Millisecond)
		w.sched.RunFor(50 * time.Millisecond)
		if got := len(w.sinks[0].reqs); got != 2 {
			t.Errorf("%d submissions reached node 0, want the original and one retry", got)
		}
		if s := c.Summary(); s.Submitted != 2 || s.Retried != 1 || s.Pending != 1 {
			t.Errorf("summary %+v, want 2 submitted = 1 retried + 1 pending", s)
		}
	})
}

// TestRepliesUnderEveryProtocol: node.Build wires reply emission for all
// four protocols — every request of a client in the reply-to set is
// accepted at f+1 signed replies — and for none of them when the set is
// empty: no node signs or sends a Reply.
func TestRepliesUnderEveryProtocol(t *testing.T) {
	for _, proto := range []types.Protocol{types.SC, types.SCR, types.BFT, types.CT} {
		for _, replyTo := range []map[types.NodeID]bool{{me: true}, nil} {
			w := newCluster(t, proto, replyTo)
			c := w.client(0, 5, 0)
			w.add(me, c)
			w.sim.Start()
			w.sched.RunFor(500 * time.Millisecond)
			s, replies := c.Summary(), w.fabric.CountsByType()[message.TReply].Messages
			if replyTo == nil {
				if replies != 0 || s.Observed != 0 {
					t.Errorf("%v, empty reply-to set: %d replies on the wire, summary %+v", proto, replies, s)
				}
				continue
			}
			if s.Accepted != 5 || s.BadSig != 0 || !isDone(c) {
				t.Errorf("%v: summary %+v done=%v, want 5 of 5 accepted", proto, s, isDone(c))
			}
			if want := int64(5 * w.topo.N()); replies != want {
				t.Errorf("%v: %d replies on the wire, want one per request per node (%d)", proto, replies, want)
			}
		}
	}
}

// TestRejectedByNonProposerButCommitted: only the proposer's admission
// gates ordering, so a request another node refused can commit anyway. The
// quorum lands inside the backoff: the request is accepted, not retried.
func TestRejectedByNonProposerButCommitted(t *testing.T) {
	w := newCluster(t, types.SC, map[types.NodeID]bool{me: true})
	c := w.client(100, 1, 3)
	w.add(me, c)
	w.sim.Start()
	w.sched.RunFor(time.Millisecond + time.Microsecond) // submitted, not yet ordered
	w.reject(3, 101, 100*time.Millisecond)
	w.sched.RunFor(time.Second)
	s := c.Summary()
	if s.Rejects[ingress.RateLimited] != 1 {
		t.Fatalf("the rejection was not consumed: %+v", s)
	}
	if s.Submitted != 1 || s.Accepted != 1 || s.Retried != 0 || !isDone(c) {
		t.Errorf("summary %+v done=%v, want the one request accepted and never resubmitted", s, isDone(c))
	}
}

// incarnations hosts a client identity's successive OS processes: the
// reactor is replaced, the identity and its address stay.
type incarnations struct{ runtime.Process }

// TestSecondIncarnationIsNotIgnored: order processes pool a request ID
// once and never forget it, so a client run that reused its predecessor's
// IDs would be discarded as duplicates and nothing would commit or reply.
// The host seeds the first ClientSeq — sofclient from its start time — and
// both incarnations reach f+1 on every request. (Seed both with 0 and the
// second is accepted 0 of 5.)
func TestSecondIncarnationIsNotIgnored(t *testing.T) {
	w := newCluster(t, types.SC, map[types.NodeID]bool{me: true})
	startTime := func() uint64 { return uint64(w.sched.Now().UnixNano()) }
	first := w.client(startTime(), 5, 0)
	host := &incarnations{first}
	w.add(me, host)
	w.sim.Start()
	w.sched.RunFor(500 * time.Millisecond)

	second := w.client(startTime(), 5, 0)
	host.Process = second
	w.as(me, second.Init)
	w.sched.RunFor(500 * time.Millisecond)
	for i, c := range []*client.Client{first, second} {
		if s := c.Summary(); s.Accepted != 5 || !isDone(c) {
			t.Errorf("incarnation %d: summary %+v done=%v, want 5 of 5 accepted", i+1, s, isDone(c))
		}
	}
}

// TestFireAndForgetTracksNothing: with Need 0 the client — the harness's,
// and sofclient without -listen — submits, counts the rejections it
// hears, and is done when its generator is.
func TestFireAndForgetTracksNothing(t *testing.T) {
	w := newScript(t)
	seq := new(atomic.Uint64)
	c := client.New(client.Config{ID: me, Targets: w.topo.AllProcesses(), Seq: seq,
		Load: &client.Load{Interval: time.Millisecond, Count: 3,
			Payload: func(i int) []byte {
				if i == 1 {
					return nil // another group's key
				}
				return make([]byte, 8)
			}}})
	w.add(me, c)
	w.sim.Start()
	w.sched.RunFor(10 * time.Millisecond)
	w.reply(0, 0, 1, nil)
	w.reject(0, 1, time.Millisecond)
	w.sched.RunFor(10 * time.Millisecond)
	if got := len(w.sinks[2].reqs); got != 2 {
		t.Errorf("node 2 received %d requests, want the 2 the generator owned", got)
	}
	if s := c.Summary(); s.Submitted != 2 || s.Observed != 0 || s.Pending != 0 || c.Rejected() != 1 || !isDone(c) {
		t.Errorf("summary %+v rejected=%d done=%v", s, c.Rejected(), isDone(c))
	}
}
