package node

import (
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/des"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/replica"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// TestLatePayloadAppliesOnArrival runs, on virtual time, a process that
// commits a request before it holds the request's body: the client
// withholds its copy from that process, which commits through its peers'
// votes all the same. Its replica holds the commit pending when the hooks
// hear of it, and applies it — with nothing driving it from outside the
// event loop — once the body arrives: under SC by the fetch the process
// sends its primary at delivery, under BFT (which fetches nothing) by the
// client's own late copy.
func TestLatePayloadAppliesOnArrival(t *testing.T) {
	for _, proto := range []types.Protocol{types.SC, types.BFT} {
		t.Run(proto.String(), func(t *testing.T) {
			base := testSpec(t, proto, 0, 1)
			base.Links = nil
			procs := base.Topo.AllProcesses()
			// A plain replica: neither SC's coordinator pair (0 and its
			// shadow 3, which would fetch the body before endorsing) nor
			// BFT's primary (0).
			late := types.NodeID(2)
			var others []types.NodeID
			for _, id := range procs {
				if id != late {
					others = append(others, id)
				}
			}
			rep := replica.New(late, &replica.Counter{})
			var pendingAtCommit []int

			sched := des.New(des.Epoch)
			sim := runtime.NewSimCluster(sched, netsim.New(netsim.LANDefaults(), base.Topo, 1))
			for _, id := range procs {
				spec := base
				spec.Self = id
				if id == late {
					spec.Replicas = []*replica.Replica{rep}
					spec.Hooks = func(int) Hooks {
						return Hooks{OnCommit: func(core.CommitEvent) {
							pendingAtCommit = append(pendingAtCommit, rep.PendingCount())
						}}
					}
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

			req := &message.Request{Client: client, ClientSeq: 1, Payload: []byte("late")}
			send := func(to []types.NodeID) {
				t.Helper()
				if err := sim.Inject(client, func(env runtime.Env) {
					if req.Sig == nil {
						sig, err := message.SignSingle(env, req.SignedBody())
						if err != nil {
							t.Error(err)
							return
						}
						req.Sig = sig
					}
					env.Multicast(to, req)
				}); err != nil {
					t.Fatal(err)
				}
			}
			send(others)
			sched.RunFor(300 * time.Millisecond)
			if len(pendingAtCommit) != 1 || pendingAtCommit[0] != 1 {
				t.Fatalf("pending events at %v's commits = %v, want one commit, held pending for its body", late, pendingAtCommit)
			}
			if applied, _ := rep.Applied(); (applied == 1) != (proto == types.SC) {
				t.Fatalf("applied %d before the client's late copy; want the fetched body applied under SC only", applied)
			}

			send([]types.NodeID{late})
			sched.RunFor(50 * time.Millisecond)
			if applied, n := rep.Applied(); applied != 1 || n != 1 || rep.PendingCount() != 0 {
				t.Fatalf("after the body arrived: applied seq %d (%d requests), %d pending; want 1, 1, 0",
					applied, n, rep.PendingCount())
			}
			if res, ok := rep.Result(req.ID()); !ok || string(res) != "1" {
				t.Errorf("result %q (ok=%v), want the counter's first value", res, ok)
			}
		})
	}
}
