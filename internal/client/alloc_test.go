package client_test

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/sof-repro/sof/internal/client"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops a share of what is put back, so pooled paths allocate at random.
var raceEnabled bool

// loopEnv is an event loop's Env with no network behind it: the identity's
// crypto, with the digest and signature scratch a runtime Env owns, and
// every multicast handed to out (dropped while out is nil).
type loopEnv struct {
	*crypto.Identity
	digest, sig []byte
	out         chan<- message.Message
}

func (e *loopEnv) Now() time.Time                               { return time.Time{} }
func (e *loopEnv) Send(types.NodeID, message.Message)           {}
func (e *loopEnv) SetTimer(time.Duration, func()) runtime.Timer { return nil }
func (e *loopEnv) Charge(time.Duration)                         {}
func (e *loopEnv) Logf(string, ...any)                          {}

func (e *loopEnv) Multicast(_ []types.NodeID, m message.Message) {
	if e.out != nil {
		e.out <- m
	}
}

func (e *loopEnv) ScratchDigest(b []byte) []byte {
	e.digest = e.AppendDigest(e.digest[:0], b)
	return e.digest
}

func (e *loopEnv) ScratchSign(d []byte) (crypto.Signature, error) {
	var err error
	e.sig, err = e.AppendSign(e.sig[:0], d)
	return e.sig, err
}

func newLoopEnv(t *testing.T) *loopEnv {
	return &loopEnv{Identity: newWorld(t, types.SC).idents[me]}
}

// TestSubmitAllocationFloors pins what a submission costs the heap: the
// request's signed buffer and a share of the client's request slab — not a
// struct of its own.
func TestSubmitAllocationFloors(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation floors do not hold under the race detector")
	}
	w := newScript(t)
	env := newLoopEnv(t)
	c := client.New(client.Config{ID: me, Targets: w.topo.AllProcesses(), Seq: new(atomic.Uint64)})
	payload := make([]byte, 128)
	if got := testing.AllocsPerRun(100, func() { c.Submit(env, c.NextID().ClientSeq, payload) }); got > 1 {
		t.Errorf("Submit = %v allocs, want <= 1 (the signed buffer and a slab share)", got)
	}
	if s := c.Summary(); s.Submitted != 101 {
		t.Errorf("summary %+v, want 101 submitted", s)
	}
}

// TestClientSlabSurvivesTurnover pins the slab rule on the client's own
// slab: Requests held while the client carves three more slabs of them are
// re-read by another goroutine all the while, and never change — a slab
// that rewrote a handed-out element races here (run under -race).
func TestClientSlabSurvivesTurnover(t *testing.T) {
	w := newScript(t)
	perSlab := 8 << 10 / int(unsafe.Sizeof(message.Request{}))
	n := 3*perSlab + perSlab/2
	held := make(chan message.Message, n)
	env := newLoopEnv(t)
	env.out = held
	c := client.New(client.Config{ID: me, Targets: w.topo.AllProcesses(), Seq: new(atomic.Uint64)})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var got []*message.Request
		for m := range held {
			got = append(got, m.(*message.Request))
			for i, r := range got { // re-read everything held so far
				if r.Client != me || r.ClientSeq != uint64(i+1) || !bytes.Equal(r.Payload, []byte{byte(i)}) ||
					!bytes.HasPrefix(r.Marshal(), r.SignedBody()) {
					t.Errorf("request %d changed after %d later submissions", i+1, len(got)-1-i)
					return
				}
			}
		}
		if len(got) != n {
			t.Errorf("held %d requests, want %d", len(got), n)
		}
	}()
	for i := range n {
		c.Submit(env, c.NextID().ClientSeq, []byte{byte(i)})
	}
	close(held)
	wg.Wait()
}

// TestAcceptedRequestsAreForgotten: a tracking client deletes a request
// once it is accepted, so a long run does not grow by one entry per
// submission; the replies that follow acceptance find nothing and change
// nothing, and the summary counts what it counted before.
func TestAcceptedRequestsAreForgotten(t *testing.T) {
	const n = 20
	w := newCluster(t, types.SC, map[types.NodeID]bool{me: true})
	c := w.client(0, n, 0)
	w.add(me, c)
	w.sim.Start()
	w.sched.RunFor(time.Second) // every node's reply lands, not only the first f+1
	s := c.Summary()
	if s.Submitted != n || s.Accepted != n || s.Observed != n || s.Pending != 0 || s.BadSig != 0 ||
		len(s.First) != n || len(s.Quorum) != n || !isDone(c) {
		t.Errorf("summary %+v done=%v, want %d submitted, observed and accepted", s, isDone(c), n)
	}
	if got := client.Tracked(c); got != 0 {
		t.Errorf("%d accepted requests are still tracked, want 0", got)
	}
	if replies := w.fabric.CountsByType()[message.TReply].Messages; replies != int64(n*w.topo.N()) {
		t.Errorf("%d replies on the wire, want %d: every node's, so replies land after acceptance", replies, n*w.topo.N())
	}
}
