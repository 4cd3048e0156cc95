package core

import (
	"bytes"
	"crypto/sha256"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

// Tracker accumulates the N2 evidence for one orderable subject (an
// OrderBatch, or a Start during coordinator installation): the distinct
// processes whose ack or order transmission supports it. At quorum the
// subject commits (N3) and the tracker's contents become the proof of
// commitment.
type Tracker struct {
	Kind     message.SubjectKind
	View     types.View
	FirstSeq types.Seq
	// Digest is the subject's body digest, kept in the tracker's own bytes.
	Digest []byte

	// Batch is set for SubjectBatch, StartMsg for SubjectStart.
	Batch    *message.OrderBatch
	StartMsg *message.Start

	// credits lists the distinct supporters in the order they were
	// credited: first the coordinator pair, credited by the order itself
	// and holding no signature (the first implicit entries), then each
	// acker with its ack signature. A duplicate check is a scan of at most
	// n entries.
	credits  []credit
	implicit int
	// proven is how many credits stood when the subject committed: the
	// evidence that made the quorum, which is what Proof hands out however
	// many late acks follow it.
	proven int

	AckSent   bool
	Committed bool

	// The tracker is one slab element: credits starts in inlineCredits and
	// Digest lives in digestBytes; either spills to a slice of its own only
	// for a deployment, or a digest, larger than the arrays.
	inlineCredits [inlineCreditCap]credit
	digestBytes   [sha256.Size]byte
}

// inlineCreditCap is how many credits a tracker holds in place: every
// process of an f = 1 deployment (n = 4). A larger one spills once, to a
// slice append sizes, when its fifth supporter is credited.
const inlineCreditCap = 4

type credit struct {
	from types.NodeID
	sig  crypto.Signature
}

// NewBatchTracker starts tracking an order batch, crediting the
// coordinator pair (their transmission of the order is their
// contribution). The tracker is carved from slab, its process's: a
// process keeps its trackers and prunes them in sequence order, so the
// trackers of one slab share a fate. digest is copied: the caller's may be
// scratch.
func NewBatchTracker(slab *message.Slab[Tracker], b *message.OrderBatch, digest []byte) *Tracker {
	t := slab.New()
	*t = Tracker{Kind: message.SubjectBatch, View: b.View, FirstSeq: b.FirstSeq, Batch: b}
	t.init(digest, b.Primary, b.Shadow)
	return t
}

// NewStartTracker starts tracking a Start message committed through the
// normal part (IN5), carved from slab as NewBatchTracker is.
func NewStartTracker(slab *message.Slab[Tracker], s *message.Start, digest []byte) *Tracker {
	t := slab.New()
	*t = Tracker{Kind: message.SubjectStart, View: s.View, FirstSeq: s.StartSeq, StartMsg: s}
	t.init(digest, s.Primary, s.Shadow)
	return t
}

func (t *Tracker) init(digest []byte, primary, shadow types.NodeID) {
	t.Digest = append(t.digestBytes[:0], digest...)
	t.credits = append(t.inlineCredits[:0], credit{from: primary})
	if shadow != types.Nil {
		t.credits = append(t.credits, credit{from: shadow})
	}
	t.implicit = len(t.credits)
}

// Matches reports whether an ack refers to this subject.
func (t *Tracker) Matches(a *message.Ack) bool {
	return a.Kind == t.Kind && a.View == t.View && a.FirstSeq == t.FirstSeq &&
		bytes.Equal(a.SubjectDigest, t.Digest)
}

// Credit records an acker's signed contribution and reports whether it is
// new. Duplicate credits, and acks from the pair the order already
// credited, are no-ops.
func (t *Tracker) Credit(from types.NodeID, sig crypto.Signature) bool {
	if t.Credited(from) {
		return false
	}
	t.credits = append(t.credits, credit{from: from, sig: sig})
	return true
}

// Credited reports whether from's contribution is recorded.
func (t *Tracker) Credited(from types.NodeID) bool {
	for i := range t.credits {
		if t.credits[i].from == from {
			return true
		}
	}
	return false
}

// CreditedByOrder reports whether the order itself credits id: id is a
// member of the coordinator pair that issued the subject.
func (t *Tracker) CreditedByOrder(id types.NodeID) bool {
	for i := range t.credits[:t.implicit] {
		if t.credits[i].from == id {
			return true
		}
	}
	return false
}

// Count returns the number of distinct contributors, counting ackers whose
// transmit capability is allowed by mayCount (dumb processes cannot
// transmit, so their stale contributions are excluded; pass nil to count
// everyone).
func (t *Tracker) Count(mayCount func(types.NodeID) bool) int {
	if mayCount == nil {
		return len(t.credits)
	}
	n := 0
	for i := range t.credits {
		if mayCount(t.credits[i].from) {
			n++
		}
	}
	return n
}

// Proof assembles the retained (n-f) distinct ack/order evidence (N3):
// the ackers credited when the subject committed (every acker so far, if
// it has not). Only meaningful for batch subjects. It is built when asked
// for — by a BackLog or a CatchUp answer — not at every commit.
func (t *Tracker) Proof() *message.CommitProof {
	if t == nil || t.Batch == nil {
		return nil
	}
	acks := t.credits[t.implicit:]
	if t.proven > 0 {
		acks = t.credits[t.implicit:t.proven]
	}
	p := &message.CommitProof{
		Batch:  t.Batch,
		Ackers: make([]types.NodeID, len(acks)),
		Sigs:   make([]crypto.Signature, len(acks)),
	}
	for i, c := range acks {
		p.Ackers[i], p.Sigs[i] = c.from, c.sig
	}
	return p
}
