package core_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/des"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/node"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// These tests pin when a process that becomes able to propose — at IN5, at
// the end of a restart catch-up — closes its first batch over a pool that
// filled while it could not. They assemble the cluster node by node on the
// simulator, so every process's hooks are heard and stamped with the
// scheduler time of the event that raised them: two hooks raised by one
// event carry the same stamp.

// stamped is a hook event with the scheduler time of the event raising it.
type stamped[E any] struct {
	ev   E
	tick time.Time
}

// resumeSim is a virtual-time SC/SCR cluster with one client.
type resumeSim struct {
	t      *testing.T
	topo   types.Topology
	sched  *des.Scheduler
	sim    *runtime.SimCluster
	nodes  map[types.NodeID]*node.Node
	client types.NodeID
	down   types.NodeID // the crashed process, types.Nil before the crash
	sent   []message.ReqID

	batches   []stamped[core.BatchEvent]
	installs  []stamped[core.InstallEvent]
	signals   []core.FailSignalEvent
	committed map[types.NodeID]map[message.ReqID]bool
}

// silentClient hosts the client's identity; requests go out through Inject.
type silentClient struct{}

func (silentClient) Init(runtime.Env)                                   {}
func (silentClient) Receive(runtime.Env, types.NodeID, message.Message) {}

// simOpts shapes a resumeSim. window is MaxInflightBatches; a process
// named in dataDir gets a checkpoint store there, so it starts in
// catch-up; one named in taps has its outbound traffic intercepted.
type simOpts struct {
	proto     types.Protocol
	f, window int
	net       netsim.Params
	seed      int64
	dataDir   map[types.NodeID]string
	taps      map[types.NodeID]core.Tap
}

func newResumeSim(t *testing.T, o simOpts) *resumeSim {
	t.Helper()
	topo, err := types.NewTopology(o.proto, o.f)
	if err != nil {
		t.Fatal(err)
	}
	dealt, err := node.DealFromSecret(crypto.HMACSHA256, "resume-test", topo, false, false)
	if err != nil {
		t.Fatal(err)
	}
	s := &resumeSim{
		t: t, topo: topo, sched: des.New(des.Epoch),
		nodes: make(map[types.NodeID]*node.Node), client: types.ClientID(0), down: types.Nil,
		committed: make(map[types.NodeID]map[message.ReqID]bool),
	}
	s.sim = runtime.NewSimCluster(s.sched, netsim.New(o.net, topo, o.seed))
	for _, id := range topo.AllProcesses() {
		id := id
		s.committed[id] = make(map[message.ReqID]bool)
		spec := node.Spec{
			Self: id, Protocol: o.proto, Topo: topo, Groups: 1, Idents: dealt.Idents,
			BatchInterval: 10 * time.Millisecond, MaxBatchBytes: 1024, Delta: 100 * time.Millisecond,
			Mirror: true, MaxInflightBatches: o.window, DigestOnlyAcks: true,
			RecoveryInterval: 50 * time.Millisecond,
			DataDir:          o.dataDir[id], Tap: o.taps[id],
		}
		spec.Hooks = func(int) node.Hooks {
			return node.Hooks{
				OnBatched: func(ev core.BatchEvent) {
					s.batches = append(s.batches, stamped[core.BatchEvent]{ev, s.sched.Now()})
				},
				OnInstalled: func(ev core.InstallEvent) {
					s.installs = append(s.installs, stamped[core.InstallEvent]{ev, s.sched.Now()})
				},
				OnFailSignal: func(ev core.FailSignalEvent) { s.signals = append(s.signals, ev) },
				OnCommit: func(ev core.CommitEvent) {
					for _, e := range ev.Entries {
						s.committed[id][e.Req] = true
					}
				},
			}
		}
		n, err := node.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		s.nodes[id] = n
		if err := s.sim.AddNode(id, dealt.Idents[id], n.Procs[0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.sim.AddNode(s.client, dealt.Idents[s.client], silentClient{}); err != nil {
		t.Fatal(err)
	}
	s.sim.Start()
	return s
}

func (s *resumeSim) proc(id types.NodeID) *core.Process { return s.nodes[id].Core(0) }

// request builds the client's next signed request.
func (s *resumeSim) request(env runtime.Env) *message.Request {
	req := &message.Request{Client: s.client, ClientSeq: uint64(len(s.sent) + 1), Payload: make([]byte, 200)}
	sig, err := message.SignSingle(env, req.SignedBody())
	if err != nil {
		s.t.Fatal(err)
	}
	req.Sig = sig
	s.sent = append(s.sent, req.ID())
	return req
}

// submitEvery multicasts one request every interval for d.
func (s *resumeSim) submitEvery(interval, d time.Duration) {
	for end := s.sched.Now().Add(d); s.sched.Now().Before(end); {
		if err := s.sim.Inject(s.client, func(env runtime.Env) {
			env.Multicast(s.topo.AllProcesses(), s.request(env))
		}); err != nil {
			s.t.Fatal(err)
		}
		s.sched.RunFor(interval)
	}
}

// firstBatch returns node id's first batch close in view v.
func (s *resumeSim) firstBatch(id types.NodeID, v types.View) (stamped[core.BatchEvent], bool) {
	for _, b := range s.batches {
		if b.ev.Node == id && b.ev.View == v {
			return b, true
		}
	}
	return stamped[core.BatchEvent]{}, false
}

// install returns node id's IN5 for rank r.
func (s *resumeSim) install(id types.NodeID, r types.Rank) (stamped[core.InstallEvent], bool) {
	for _, in := range s.installs {
		if in.ev.Node == id && in.ev.Rank == r {
			return in, true
		}
	}
	return stamped[core.InstallEvent]{}, false
}

// crashPrimaryUnderLoad commits some work under the first coordinator,
// crashes its primary and keeps the load on until the successor is well
// past its install, then lets everything drain.
func (s *resumeSim) crashPrimaryUnderLoad() types.NodeID {
	s.submitEvery(10*time.Millisecond, 40*time.Millisecond)
	p1, _, _, err := s.topo.Candidate(1)
	if err != nil {
		s.t.Fatal(err)
	}
	s.sim.Crash(p1)
	s.down = p1
	s.submitEvery(10*time.Millisecond, 300*time.Millisecond)
	s.sched.RunFor(time.Second)
	return p1
}

// TestResumeProposingOnInstall: SC f = 1 with the proposal window open.
// The primary crashes with requests pending, and the unpaired successor
// installs over a pool that filled during detection. Its first batch goes
// out in the very event that completes its IN5, not one BatchInterval
// later. The paper's interval-paced proposer is the twin: there the first
// batch still waits for the backstop.
func TestResumeProposingOnInstall(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window int
	}{{"pipelined", 8}, {"interval-paced", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			s := newResumeSim(t, simOpts{proto: types.SC, f: 1, window: tc.window, net: netsim.LANDefaults(), seed: 1})
			s.crashPrimaryUnderLoad()
			successor, _, _, err := s.topo.Candidate(2)
			if err != nil {
				t.Fatal(err)
			}
			in, ok := s.install(successor, 2)
			if !ok {
				t.Fatalf("the successor %v never installed", successor)
			}
			first, ok := s.firstBatch(successor, 2)
			if !ok {
				t.Fatalf("the successor %v never proposed", successor)
			}
			gap := first.tick.Sub(in.tick)
			if tc.window > 1 && gap != 0 {
				t.Errorf("first batch %v after IN5, want it in the install's own event", gap)
			}
			if tc.window <= 1 && (gap < 10*time.Millisecond || gap >= 20*time.Millisecond) {
				t.Errorf("interval-paced first batch %v after IN5, want one BatchInterval", gap)
			}
			s.assertAllCommitted()
		})
	}
}

// heldBehind is a tap that, from the first message to one destination
// that from selects, holds everything its process sends there and lets it
// out right behind the first later message that until selects: how a late
// link, or a non-FIFO one, can present them. reordered reports that it
// did.
type heldBehind struct {
	to          types.NodeID
	from, until func(message.Message) bool
	held        []message.Message
	reordered   bool
}

func (h *heldBehind) Outbound(_ runtime.Env, to types.NodeID, m message.Message) []message.Message {
	if to != h.to || h.reordered || (len(h.held) == 0 && !h.from(m)) {
		return []message.Message{m}
	}
	if len(h.held) == 0 || !h.until(m) {
		h.held = append(h.held, m)
		return nil
	}
	h.reordered = true
	return append([]message.Message{m}, h.held...)
}

func isStartSig(m message.Message) bool    { _, ok := m.(*message.StartSig); return ok }
func isStartTuples(m message.Message) bool { _, ok := m.(*message.StartTuples); return ok }
func isProposal(m message.Message) bool {
	b, ok := m.(*message.OrderBatch)
	return ok && len(b.Sig2) == 0
}
func anyMessage(message.Message) bool { return true }

// TestPairedSuccessorKeepsEarlyProposals: with a paired successor (SC and
// SCR at f = 2) each pair member installs on its own f-1 tuples or on its
// counterpart's, so the new primary can complete IN5 — and now propose at
// once — before its shadow does. Across 50 seeds of jittered links, no
// fail-signal follows the first fail-over and every request commits
// everywhere. On the simulator's FIFO pair links the shadow has always
// installed first (its counterpart's tuples precede the proposal, its own
// counter-signatures trail the primary's by one send), so the overtaking
// runs are tapped: the new primary's messages to its shadow from its IN4
// tuples on trail its first proposal, and every other process's
// counter-signature to the shadow trails its next message there. The
// shadow keeps the early proposals and endorses them at its own IN5.
func TestPairedSuccessorKeepsEarlyProposals(t *testing.T) {
	net := netsim.LANDefaults()
	net.LAN.Jitter = time.Millisecond
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for _, proto := range []types.Protocol{types.SC, types.SCR} {
		for _, overtake := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/overtake=%v", proto, overtake), func(t *testing.T) {
				topo := types.Topology{Protocol: proto, F: 2}
				pc, ps, _, err := topo.Candidate(2)
				if err != nil {
					t.Fatal(err)
				}
				for seed := int64(1); seed <= int64(seeds); seed++ {
					o := simOpts{proto: proto, f: 2, window: 8, net: net, seed: seed}
					var primaryTap *heldBehind
					if overtake {
						primaryTap = &heldBehind{to: ps, from: isStartTuples, until: isProposal}
						o.taps = map[types.NodeID]core.Tap{pc: primaryTap}
						for _, id := range topo.AllProcesses() {
							if id != pc && id != ps {
								o.taps[id] = &heldBehind{to: ps, from: isStartSig, until: anyMessage}
							}
						}
					}
					s := newResumeSim(t, o)
					p1 := s.crashPrimaryUnderLoad()
					if overtake && !primaryTap.reordered {
						t.Fatalf("seed %d: the successor %v never sent a proposal past its tuples", seed, pc)
					}
					for _, fs := range s.signals {
						if fs.Pair != 1 {
							t.Fatalf("seed %d: pair %d fail-signalled at %v (%s) after the fail-over from crashed %v",
								seed, fs.Pair, fs.Node, fs.Reason, p1)
						}
					}
					s.assertAllCommitted()
				}
			})
		}
	}
}

// TestResumeProposingOnCatchUp: a primary that starts in catch-up (it
// has a checkpoint store) receives a full pool's worth of requests before
// its peers' answers end the catch-up. It proposes in the event that
// finishes the catch-up, not one BatchInterval later.
func TestResumeProposingOnCatchUp(t *testing.T) {
	primary, _, _, err := types.Topology{Protocol: types.SC, F: 1}.Candidate(1)
	if err != nil {
		t.Fatal(err)
	}
	s := newResumeSim(t, simOpts{proto: types.SC, f: 1, window: 8, net: netsim.LANDefaults(), seed: 1,
		dataDir: map[types.NodeID]string{primary: t.TempDir()}})
	p := s.proc(primary)
	var reqs []*message.Request
	if err := s.sim.Inject(s.client, func(env runtime.Env) {
		for i := 0; i < 12; i++ {
			reqs = append(reqs, s.request(env))
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Handed straight to every process once the client has built them:
	// no client CPU or link delay, so the pool is full long before the
	// catch-up round trip completes.
	for _, id := range s.topo.AllProcesses() {
		proc := s.proc(id)
		if err := s.sim.Inject(id, func(env runtime.Env) {
			for _, r := range reqs {
				proc.Receive(env, s.client, r)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for p.CatchingUp() {
		if !s.sched.Step() {
			t.Fatal("the scheduler ran dry before the catch-up finished")
		}
	}
	done := s.sched.Now()
	first, ok := s.firstBatch(primary, 1)
	if !ok {
		t.Fatalf("the primary finished catching up at %v with %d requests pending and proposed nothing",
			done.Sub(des.Epoch), p.Pool().PendingCount())
	}
	if first.tick != done {
		t.Errorf("first batch at %v, catch-up finished at %v: want the same event", first.tick.Sub(des.Epoch), done.Sub(des.Epoch))
	}
	s.sched.RunFor(time.Second)
	s.assertAllCommitted()
}

// assertAllCommitted checks that every live process committed every
// request sent.
func (s *resumeSim) assertAllCommitted() {
	s.t.Helper()
	for id, got := range s.committed {
		if id == s.down {
			continue
		}
		var missing []message.ReqID
		for _, r := range s.sent {
			if !got[r] {
				missing = append(missing, r)
			}
		}
		if len(missing) > 0 {
			s.t.Fatalf("%v committed %d of %d requests; first missing %v",
				id, len(s.sent)-len(missing), len(s.sent), missing[0])
		}
	}
}
