package node

import (
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/des"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// withholdingTap is a primary that keeps its order decisions to itself and
// never admits it: proposals and fail-signals it emits go nowhere.
type withholdingTap struct{}

func (withholdingTap) Outbound(_ runtime.Env, _ types.NodeID, m message.Message) []message.Message {
	switch m.(type) {
	case *message.OrderBatch, *message.FailSignal:
		return nil
	}
	return []message.Message{m}
}

// idleClient hosts the client's identity; the test submits through Inject.
type idleClient struct{}

func (idleClient) Init(runtime.Env)                                   {}
func (idleClient) Receive(runtime.Env, types.NodeID, message.Message) {}

// TestWithheldProposalsFailOnTheOrderDecision runs, on virtual time, the
// one time-domain failure only the shadow can see: the primary's proposals
// are tapped away, so the shadow's expectation of an order decision for
// the request runs out BatchInterval + Delta after it saw the request —
// not before — and its fail-signal's reason names exactly that request.
// The shadow keeps one deadline list under one timer, so this is also the
// end-to-end check that the right entry of it expires at the right time.
func TestWithheldProposalsFailOnTheOrderDecision(t *testing.T) {
	base := testSpec(t, types.SC, 0, 1)
	base.Links = nil
	base.Delta = 200 * time.Millisecond
	primary, shadow, paired, err := base.Topo.Candidate(1)
	if err != nil || !paired {
		t.Fatalf("candidate 1: %v/%v paired=%v err=%v", primary, shadow, paired, err)
	}

	sched := des.New(des.Epoch)
	sim := runtime.NewSimCluster(sched, netsim.New(netsim.LANDefaults(), base.Topo, 1))
	var signals []core.FailSignalEvent
	for _, id := range base.Topo.AllProcesses() {
		spec := base
		spec.Self = id
		spec.Hooks = func(int) Hooks {
			return Hooks{OnFailSignal: func(ev core.FailSignalEvent) { signals = append(signals, ev) }}
		}
		if id == primary {
			spec.Tap = withholdingTap{}
		}
		n, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		if err := sim.AddNode(id, base.Idents[id], n.Procs[0]); err != nil {
			t.Fatal(err)
		}
	}
	client := types.ClientID(0)
	if err := sim.AddNode(client, base.Idents[client], idleClient{}); err != nil {
		t.Fatal(err)
	}
	sim.Start()

	req := &message.Request{Client: client, ClientSeq: 1, Payload: []byte("never ordered")}
	if err := sim.Inject(client, func(env runtime.Env) {
		sig, err := message.SignSingle(env, req.SignedBody())
		if err != nil {
			t.Error(err)
			return
		}
		req.Sig = sig
		env.Multicast(base.Topo.AllProcesses(), req)
	}); err != nil {
		t.Fatal(err)
	}

	due := base.BatchInterval + base.Delta
	sched.RunFor(due - time.Millisecond)
	if len(signals) != 0 {
		t.Fatalf("fail-signal %v before the expectation was due: %+v", time.Millisecond, signals[0])
	}
	sched.RunFor(50 * time.Millisecond)
	var got *core.FailSignalEvent
	for i := range signals {
		if signals[i].Node == shadow && signals[i].Emitter {
			got = &signals[i]
		}
	}
	if got == nil {
		t.Fatalf("the shadow never fail-signalled; events: %+v", signals)
	}
	if want := "time-domain: order decision for " + req.ID().String(); got.Reason != want {
		t.Errorf("shadow's reason = %q, want %q", got.Reason, want)
	}
	if late := got.At.Sub(des.Epoch) - due; late < 0 || late > 5*time.Millisecond {
		t.Errorf("shadow fail-signalled %v after the request was sent, want within 5ms after %v", got.At.Sub(des.Epoch), due)
	}
}
