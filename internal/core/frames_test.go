package core_test

import (
	"bytes"
	"maps"
	"slices"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// These tests pin which ordering frames a process sends when it pipelines:
// the coordinator pair acks nothing (every order credits it already), the
// primary forwards the shadow's endorsement to the processes outside the
// pair only, and a process that missed an order anyway pulls the commits
// it lacks one fetch window after its watermark stopped.

// sentKinds counts what one process sends, per destination other than
// itself: acks and the subject-carrying ones among them, doubly signed
// batches (at the primary, its forward), and the destinations of live
// pulls (a CatchUpReq that is not a watermark announcement). A drop
// filter, when set, discards the messages it matches.
type sentKinds struct {
	self        types.NodeID
	acks        int
	subjectAcks int
	endorsedTo  map[types.NodeID]int
	pulledFrom  []types.NodeID
	drop        func(to types.NodeID, m message.Message) bool
}

func newSentKinds(self types.NodeID) *sentKinds {
	return &sentKinds{self: self, endorsedTo: make(map[types.NodeID]int)}
}

func (k *sentKinds) Outbound(_ runtime.Env, to types.NodeID, m message.Message) []message.Message {
	if k.drop != nil && k.drop(to, m) {
		return nil
	}
	if to == k.self {
		return []message.Message{m}
	}
	switch m := m.(type) {
	case *message.Ack:
		k.acks++
		if len(m.Subject) > 0 {
			k.subjectAcks++
		}
	case *message.OrderBatch:
		if len(m.Sig2) > 0 {
			k.endorsedTo[to]++
		}
	case *message.CatchUpReq:
		if !m.Announce {
			k.pulledFrom = append(k.pulledFrom, to)
		}
	}
	return []message.Message{m}
}

// tappedSim is a resumeSim at f = 1 with every process's outbound traffic
// counted; shape may set drop filters before the cluster starts.
func tappedSim(t *testing.T, proto types.Protocol, window int, shape func(map[types.NodeID]*sentKinds)) (*resumeSim, map[types.NodeID]*sentKinds) {
	t.Helper()
	topo, err := types.NewTopology(proto, 1)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[types.NodeID]*sentKinds)
	taps := make(map[types.NodeID]core.Tap)
	for _, id := range topo.AllProcesses() {
		kinds[id] = newSentKinds(id)
		taps[id] = kinds[id]
	}
	if shape != nil {
		shape(kinds)
	}
	s := newResumeSim(t, simOpts{proto: proto, f: 1, window: window, net: netsim.LANDefaults(), seed: 1, taps: taps})
	return s, kinds
}

// outsidePair returns the processes outside the first coordinator pair.
func outsidePair(topo types.Topology) (pc, ps types.NodeID, others []types.NodeID) {
	pc, ps, _, _ = topo.Candidate(1)
	for _, id := range topo.AllProcesses() {
		if id != pc && id != ps {
			others = append(others, id)
		}
	}
	return pc, ps, others
}

// isEndorsed matches a doubly signed batch at seq (any seq when 0).
func isEndorsed(m message.Message, seq types.Seq) bool {
	b, ok := m.(*message.OrderBatch)
	return ok && len(b.Sig2) > 0 && (seq == 0 || b.FirstSeq == seq)
}

// TestCoordinatorPairSendsNoAck: pipelined, neither coordinator member
// acks and the primary's forward reaches exactly the two processes outside
// the pair; nobody pulls. Interval-paced, every process sends
// subject-carrying acks and the forward reaches all three other processes,
// as the paper's processes do.
func TestCoordinatorPairSendsNoAck(t *testing.T) {
	for _, window := range []int{8, 0} {
		s, kinds := tappedSim(t, types.SC, window, nil)
		pc, ps, others := outsidePair(s.topo)
		s.submitEvery(3*time.Millisecond, 60*time.Millisecond)
		s.sched.RunFor(500 * time.Millisecond)
		s.assertAllCommitted()
		for id, k := range kinds {
			if len(k.pulledFrom) != 0 {
				t.Errorf("window %d: fault-free %v pulled %d times", window, id, len(k.pulledFrom))
			}
		}
		forwardTo := slices.Sorted(maps.Keys(kinds[pc].endorsedTo))
		if window > 1 {
			for _, id := range []types.NodeID{pc, ps} {
				if got := kinds[id].acks; got != 0 {
					t.Errorf("pipelined coordinator member %v sent %d acks, want 0", id, got)
				}
			}
			for _, id := range others {
				if kinds[id].acks == 0 || kinds[id].subjectAcks != 0 {
					t.Errorf("pipelined %v sent %d acks, %d with a subject; want digest-only acks",
						id, kinds[id].acks, kinds[id].subjectAcks)
				}
			}
			if !slices.Equal(forwardTo, others) {
				t.Errorf("pipelined primary forwarded to %v, want exactly %v", forwardTo, others)
			}
			continue
		}
		for id, k := range kinds {
			if k.acks == 0 || k.subjectAcks != k.acks {
				t.Errorf("interval-paced %v sent %d acks, %d with a subject; want every ack to carry it",
					id, k.acks, k.subjectAcks)
			}
		}
		if want := slices.Sorted(slices.Values(append([]types.NodeID{ps}, others...))); !slices.Equal(forwardTo, want) {
			t.Errorf("interval-paced primary forwarded to %v, want %v", forwardTo, want)
		}
	}
}

// TestForwardCoversWithholdingShadow: a shadow that withholds its
// endorsement from the processes outside the pair costs nothing — the
// primary's forward still reaches them, so every process delivers every
// request and nobody fail-signals.
func TestForwardCoversWithholdingShadow(t *testing.T) {
	topo, err := types.NewTopology(types.SC, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc, ps, _ := outsidePair(topo)
	s, kinds := tappedSim(t, types.SC, 8, func(kinds map[types.NodeID]*sentKinds) {
		kinds[ps].drop = func(to types.NodeID, m message.Message) bool {
			return to != ps && to != pc && isEndorsed(m, 0)
		}
	})
	s.submitEvery(3*time.Millisecond, 60*time.Millisecond)
	s.sched.RunFor(500 * time.Millisecond)
	s.assertAllCommitted()
	if len(s.signals) != 0 {
		t.Errorf("a withholding shadow drew fail-signals: %+v", s.signals)
	}
	if got := slices.Collect(maps.Keys(kinds[ps].endorsedTo)); !slices.Equal(got, []types.NodeID{pc}) {
		t.Errorf("the shadow's endorsements reached %v, want only the primary %v", got, pc)
	}
}

// TestOvertakingAckFetchesNothing: when the order reaches a process a few
// milliseconds late — inside one fetch window — the acks that overtake it
// would complete a quorum of support, yet nothing is pulled: acks are no
// evidence, and the watermark never stands still for a window.
func TestOvertakingAckFetchesNothing(t *testing.T) {
	s, kinds := tappedSim(t, types.SC, 8, nil)
	pc, ps, others := outsidePair(s.topo)
	victim := others[1]
	s.fabric.Lag(pc, victim, 3*time.Millisecond)
	s.fabric.Lag(ps, victim, 3*time.Millisecond)
	s.submitEvery(3*time.Millisecond, 60*time.Millisecond)
	s.sched.RunFor(500 * time.Millisecond)
	s.assertAllCommitted()
	if got := kinds[victim].pulledFrom; len(got) != 0 {
		t.Errorf("%v pulled late orders from %v, want nothing pulled", victim, got)
	}
}

// missedOrderWindow is the fetch window of the missed-order tests: the
// resumeSim's batch interval.
const missedOrderWindow = 10 * time.Millisecond

// TestMissedOrderFetchedFromAcker: a process outside the coordinator pair
// that loses both the shadow's endorsement and the primary's forward of
// one batch buffers the next batch ahead of its turn, while its watermark
// stands still. One fetch window on, it pulls the commits it lacks from
// that batch's primary, and it delivers the lost batch within two fetch
// windows of the acker, then everything.
func TestMissedOrderFetchedFromAcker(t *testing.T) {
	s, kinds, pc, acker, victim, lost := missedOrderSim(t)
	assertMissedOrderFetched(t, s, kinds, acker, victim, pc, lost)
	if len(s.signals) != 0 {
		t.Errorf("a lost order drew fail-signals: %+v", s.signals)
	}
}

// TestForgedAcksDoNotStallRepair is TestMissedOrderFetchedFromAcker with
// a Byzantine acker: before the requests it also signs 64 acks for
// sequences 1,000,000 on, with made-up digests, and sends them to the
// victim, which parks them. Acks are no evidence of a gap, so they steer
// nothing: the victim still delivers all 20 sequences, the lost one
// within the two-window bound.
func TestForgedAcksDoNotStallRepair(t *testing.T) {
	s, kinds, pc, acker, victim, lost := missedOrderSim(t)
	if err := s.sim.Inject(acker, func(env runtime.Env) {
		for i := range 64 {
			a := &message.Ack{From: acker, Kind: message.SubjectBatch, View: 1,
				FirstSeq: 1_000_000 + types.Seq(i), SubjectDigest: bytes.Repeat([]byte{byte(i)}, 32)}
			if err := message.Sign(env, a, &a.Sig); err != nil {
				t.Error(err)
				return
			}
			env.Send(victim, a)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.sched.RunFor(100 * time.Millisecond) // the victim verifies and parks them
	assertMissedOrderFetched(t, s, kinds, acker, victim, pc, lost)
	if got := s.proc(victim).MaxDelivered(); got != 20 {
		t.Errorf("%v delivered up to sequence %d, want all 20", victim, got)
	}
}

// missedOrderSim is a pipelined SC f = 1 resumeSim in which both copies of
// one endorsed batch, from sequence 3 on, are lost on their way to victim;
// acker is the other process outside the pair, and *lost the batch's
// sequence once it is lost.
func missedOrderSim(t *testing.T) (s *resumeSim, kinds map[types.NodeID]*sentKinds, pc, acker, victim types.NodeID, lost *types.Seq) {
	t.Helper()
	topo, err := types.NewTopology(types.SC, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc, ps, others := outsidePair(topo)
	acker, victim, lost = others[0], others[1], new(types.Seq)
	s, kinds = tappedSim(t, types.SC, 8, func(kinds map[types.NodeID]*sentKinds) {
		for _, id := range []types.NodeID{pc, ps} {
			kinds[id].drop = loseOne(victim, lost, func(b *message.OrderBatch) bool { return len(b.Sig2) > 0 })
		}
	})
	return s, kinds, pc, acker, victim, lost
}

// TestCTMissedOrderFetchedFromAcker is the CT variant: the coordinator's
// order never reaches one process, which pulls it from the coordinator.
func TestCTMissedOrderFetchedFromAcker(t *testing.T) {
	topo, err := types.NewTopology(types.CT, 1)
	if err != nil {
		t.Fatal(err)
	}
	coord, _, others := outsidePair(topo)
	acker, victim := others[0], others[1]
	var lost types.Seq
	s, kinds := tappedSim(t, types.CT, 8, func(kinds map[types.NodeID]*sentKinds) {
		kinds[coord].drop = loseOne(victim, &lost, func(*message.OrderBatch) bool { return true })
	})
	assertMissedOrderFetched(t, s, kinds, acker, victim, coord, &lost)
}

// loseOne returns a drop filter that discards, on its way to victim, the
// first order batch from sequence 3 on that is matches, and every later
// copy of it; *lost records its sequence. Filters sharing lost drop the
// same batch.
func loseOne(victim types.NodeID, lost *types.Seq, is func(*message.OrderBatch) bool) func(types.NodeID, message.Message) bool {
	return func(to types.NodeID, m message.Message) bool {
		b, ok := m.(*message.OrderBatch)
		if !ok || to != victim || !is(b) || b.FirstSeq < 3 {
			return false
		}
		if *lost == 0 {
			*lost = b.FirstSeq
		}
		return b.FirstSeq == *lost
	}
}

// assertMissedOrderFetched drives requests through s and checks that
// victim, which lost the order at *lost, pulled once, from primary, and
// delivered it within two fetch windows of acker, and that everyone
// delivered everything.
func assertMissedOrderFetched(t *testing.T, s *resumeSim, kinds map[types.NodeID]*sentKinds, acker, victim, primary types.NodeID, lost *types.Seq) {
	t.Helper()
	delivered := make(map[types.NodeID]time.Time)
	step := func() {
		s.sched.RunFor(100 * time.Microsecond)
		for _, id := range []types.NodeID{acker, victim} {
			if _, ok := delivered[id]; !ok && *lost > 0 && s.proc(id).MaxDelivered() >= *lost {
				delivered[id] = s.sched.Now()
			}
		}
	}
	for end := s.sched.Now().Add(60 * time.Millisecond); s.sched.Now().Before(end); {
		if err := s.sim.Inject(s.client, func(env runtime.Env) {
			env.Multicast(s.topo.AllProcesses(), s.request(env))
		}); err != nil {
			t.Fatal(err)
		}
		for range 30 {
			step()
		}
	}
	for i := 0; i < 5000 && len(delivered) < 2; i++ {
		step()
	}
	s.sched.RunFor(500 * time.Millisecond)
	s.assertAllCommitted()
	if *lost == 0 {
		t.Fatal("no order was lost")
	}
	if len(delivered) < 2 {
		t.Fatalf("sequence %d delivered at %v only", *lost, slices.Collect(maps.Keys(delivered)))
	}
	if wait := delivered[victim].Sub(delivered[acker]); wait > 2*missedOrderWindow {
		t.Errorf("%v delivered sequence %d %v after %v, want within two fetch windows (%v)",
			victim, *lost, wait, acker, 2*missedOrderWindow)
	}
	if got := kinds[victim].pulledFrom; !slices.Equal(got, []types.NodeID{primary}) {
		t.Errorf("%v pulled from %v, want once from the primary %v", victim, got, primary)
	}
}
