package harness

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// AdversaryKind selects which adversarial twin replaces an honest node's
// outbound behaviour. Each kind targets one protocol defence: the value
// domain checks (equivocation), the fail-signal channel (suppression),
// replay idempotence (stale replay), and the PR 5/6 catch-up evidence
// clamps (lying). The node's inbound processing stays honest — the attack
// surface is exactly what a compromised process could put on the wire with
// its own signing key.
type AdversaryKind string

const (
	// AdversaryEquivocatingPrimary proposes conflicting batches for the
	// same sequence number: the genuine proposal plus a re-signed twin
	// with a different request assignment to its shadow (a value-domain
	// equivocation the shadow must refuse), and the same 1-signed twin in
	// place of the endorsed batch toward one victim replica (which must
	// reject it for the missing second signature and recover the genuine
	// order from its peers).
	AdversaryEquivocatingPrimary AdversaryKind = "equivocating-primary"
	// AdversarySignalSuppressor endorses honestly but never emits a
	// fail-signal: every outbound FailSignal is dropped. Fail-over must
	// still complete through the counterpart's own time-domain checks.
	AdversarySignalSuppressor AdversaryKind = "signal-suppressing-shadow"
	// AdversaryStaleReplayer records its own outbound traffic and keeps
	// re-sending stale copies alongside live messages — across restarts
	// too, since the tap survives its host's RestartNode. Duplicate and
	// out-of-date protocol messages must be absorbed idempotently.
	AdversaryStaleReplayer AdversaryKind = "stale-epoch-replayer"
	// AdversaryCatchUpLiar answers catch-up requests with inflated
	// claims: UpTo far beyond its evidence and a forged PairNextPropose,
	// alternating with entirely naked claims that carry no evidence at
	// all. Requesters must clamp to the substantiated watermark and
	// finish catch-up on honest answers without wedging.
	AdversaryCatchUpLiar AdversaryKind = "catchup-liar"
)

// AdversaryStats counts what a tap did to its host's outbound traffic.
type AdversaryStats struct {
	Matched  int64 // messages the adversary acted on
	Injected int64 // forged/duplicated messages added to the wire
	Dropped  int64 // messages suppressed
}

// tapStats is the atomic backing store: taps run on their host's reactor
// goroutine while tests and the scenario runner read the counters.
type tapStats struct {
	matched, injected, dropped atomic.Int64
}

func (s *tapStats) snapshot() AdversaryStats {
	return AdversaryStats{
		Matched:  s.matched.Load(),
		Injected: s.injected.Load(),
		Dropped:  s.dropped.Load(),
	}
}

// adversaryTap is what the cluster stores per adversarial node.
type adversaryTap interface {
	core.Tap
	kind() AdversaryKind
	stats() AdversaryStats
}

// newAdversaryTap builds the tap for one node. The seed keeps any random
// choices (the replayer's pick of which stale message to resend)
// deterministic per (campaign seed, node).
func newAdversaryTap(kind AdversaryKind, id types.NodeID, topo types.Topology, seed int64) (adversaryTap, error) {
	if !topo.IsProcess(id) {
		return nil, fmt.Errorf("harness: adversary %v is not an order process", id)
	}
	switch kind {
	case AdversaryEquivocatingPrimary:
		shadow, paired := topo.PairOf(id)
		if !paired || topo.IsShadow(id) {
			return nil, fmt.Errorf("harness: equivocating primary %v must be a paired primary", id)
		}
		victim := types.Nil
		for _, p := range topo.AllProcesses() {
			if p != id && p != shadow {
				victim = p
				break
			}
		}
		return &equivocatingPrimaryTap{self: id, shadow: shadow, victim: victim, armAfter: 2}, nil
	case AdversarySignalSuppressor:
		if !topo.IsShadow(id) {
			return nil, fmt.Errorf("harness: signal suppressor %v must be a shadow", id)
		}
		return &signalSuppressorTap{}, nil
	case AdversaryStaleReplayer:
		return &staleReplayerTap{
			self:  id,
			every: 3,
			rng:   rand.New(rand.NewSource(seed ^ int64(id)<<20)),
			hist:  make(map[types.NodeID][]message.Message),
		}, nil
	case AdversaryCatchUpLiar:
		return &catchUpLiarTap{self: id}, nil
	}
	return nil, fmt.Errorf("harness: unknown adversary kind %q", kind)
}

// Adversary returns the kind and counters of the adversary installed on
// id, if any.
func (c *Cluster) Adversary(id types.NodeID) (AdversaryKind, AdversaryStats, bool) {
	tap, ok := c.advTaps[id]
	if !ok {
		return "", AdversaryStats{}, false
	}
	return tap.kind(), tap.stats(), true
}

// pass is the identity tap result.
func pass(m message.Message) []message.Message { return []message.Message{m} }

// --- equivocating primary ---

type equivocatingPrimaryTap struct {
	self, shadow, victim types.NodeID
	// armAfter lets the first few proposals through honestly so the
	// equivocation lands on an established regime, not the first batch.
	armAfter int
	tapStats

	proposals int          // reactor-thread only
	forgedSeq atomic.Int64 // FirstSeq of the equivocated batch (0 = not yet)
	twin      *message.OrderBatch
}

func (t *equivocatingPrimaryTap) kind() AdversaryKind   { return AdversaryEquivocatingPrimary }
func (t *equivocatingPrimaryTap) stats() AdversaryStats { return t.snapshot() }

func (t *equivocatingPrimaryTap) Outbound(env runtime.Env, to types.NodeID, m message.Message) []message.Message {
	b, ok := m.(*message.OrderBatch)
	if !ok || b.Primary != t.self {
		return pass(m)
	}
	if len(b.Sig2) == 0 && to == t.shadow {
		// 1-signed proposal on the pair link: after the warm-up, attach a
		// conflicting twin for the same sequence range. The shadow
		// endorses the genuine batch first (advancing its expectation),
		// so the twin is a same-seq conflict it must permanently refuse.
		t.proposals++
		if t.forgedSeq.Load() != 0 || t.proposals <= t.armAfter {
			return pass(m)
		}
		twin := t.forgeTwin(env, b)
		if twin == nil {
			return pass(m)
		}
		t.twin = twin
		t.forgedSeq.Store(int64(b.FirstSeq))
		t.matched.Add(1)
		t.injected.Add(1)
		return []message.Message{b, twin}
	}
	if len(b.Sig2) != 0 && to == t.victim && t.twin != nil && b.FirstSeq == t.twin.FirstSeq {
		// Endorsed relay: the victim gets the conflicting 1-signed twin
		// instead of the genuine endorsed batch. It must reject the twin
		// (no second signature) and learn the real order from its peers.
		t.matched.Add(1)
		return pass(t.twin)
	}
	return pass(m)
}

// forgeTwin builds a conflicting batch for b's sequence range: same header,
// different request assignment, re-signed with the adversary's own key.
func (t *equivocatingPrimaryTap) forgeTwin(env runtime.Env, b *message.OrderBatch) *message.OrderBatch {
	if len(b.Entries) == 0 {
		return nil
	}
	entries := make([]message.OrderEntry, len(b.Entries))
	copy(entries, b.Entries)
	dig := make([]byte, len(entries[0].ReqDigest))
	copy(dig, entries[0].ReqDigest)
	if len(dig) > 0 {
		dig[0] ^= 0xff
	}
	entries[0].ReqDigest = dig
	twin := &message.OrderBatch{
		Coord:    b.Coord,
		View:     b.View,
		FirstSeq: b.FirstSeq,
		Entries:  entries,
		Primary:  b.Primary,
		Shadow:   b.Shadow,
	}
	if err := message.Sign(env, twin, &twin.Sig1); err != nil {
		return nil
	}
	return twin
}

// --- signal-suppressing shadow ---

type signalSuppressorTap struct {
	tapStats
}

func (t *signalSuppressorTap) kind() AdversaryKind   { return AdversarySignalSuppressor }
func (t *signalSuppressorTap) stats() AdversaryStats { return t.snapshot() }

func (t *signalSuppressorTap) Outbound(_ runtime.Env, _ types.NodeID, m message.Message) []message.Message {
	if m.Type() == message.TFailSignal {
		t.matched.Add(1)
		t.dropped.Add(1)
		return nil
	}
	return pass(m)
}

// --- stale-epoch replayer ---

const replayerHistory = 32

type staleReplayerTap struct {
	self  types.NodeID
	every int
	rng   *rand.Rand
	// hist survives the host's restarts (the cluster reuses the tap), so
	// post-restart incarnations genuinely replay pre-restart traffic.
	hist map[types.NodeID][]message.Message
	n    int
	tapStats
}

func (t *staleReplayerTap) kind() AdversaryKind   { return AdversaryStaleReplayer }
func (t *staleReplayerTap) stats() AdversaryStats { return t.snapshot() }

func (t *staleReplayerTap) Outbound(_ runtime.Env, to types.NodeID, m message.Message) []message.Message {
	if to == t.self {
		return pass(m) // keep the host internally consistent
	}
	ring := append(t.hist[to], m)
	if len(ring) > replayerHistory {
		ring = ring[1:]
	}
	t.hist[to] = ring
	t.n++
	if t.n%t.every != 0 || len(ring) < 2 {
		return pass(m)
	}
	stale := ring[t.rng.Intn(len(ring)-1)] // anything but the live message
	t.matched.Add(1)
	t.injected.Add(1)
	return []message.Message{m, stale}
}

// --- catch-up liar ---

type catchUpLiarTap struct {
	self types.NodeID
	n    int
	tapStats
}

func (t *catchUpLiarTap) kind() AdversaryKind   { return AdversaryCatchUpLiar }
func (t *catchUpLiarTap) stats() AdversaryStats { return t.snapshot() }

// liarInflation is how far beyond its evidence the liar claims to have
// delivered; far above any sequence number a test run reaches.
const liarInflation types.Seq = 1 << 40

func (t *catchUpLiarTap) Outbound(env runtime.Env, to types.NodeID, m message.Message) []message.Message {
	cu, ok := m.(*message.CatchUp)
	if !ok || to == t.self {
		return pass(m)
	}
	t.n++
	// A fresh struct: messages memoize their encodings, so mutating the
	// original in place would ship stale wire bytes.
	fake := &message.CatchUp{
		From:            cu.From,
		Base:            cu.Base,
		UpTo:            cu.UpTo + liarInflation,
		PairNextPropose: cu.PairNextPropose + liarInflation,
	}
	if t.n%2 == 1 {
		// Inflated-with-evidence variant: real subjects, absurd claims.
		// credibleUpTo must clamp the finish gate to the carried proof.
		fake.MaxCommitted = cu.MaxCommitted
		fake.Starts = cu.Starts
		fake.Batches = cu.Batches
		fake.Requests = cu.Requests
	}
	// else: the naked-claim variant — a validly signed empty answer with a
	// huge UpTo, the exact shape that would wedge a requester that trusted
	// bare watermark claims.
	if err := message.Sign(env, fake, &fake.Sig); err != nil {
		return pass(m)
	}
	t.matched.Add(1)
	return pass(fake)
}
