package message

import (
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// CatchUpReq announces one process's committed-sequence watermark. A
// restarted order process multicasts it after restoring its durable
// protocol checkpoint (Announce false: peers answer with a CatchUp
// carrying the committed batches it missed); a running process multicasts
// it with Announce true each time a checkpoint becomes durable, which is
// what lets every process track the cluster-wide checkpoint watermark and
// prune its committed-order history below it instead of retaining it
// forever.
type CatchUpReq struct {
	From      types.NodeID
	Watermark types.Seq // highest contiguously delivered (or checkpointed) seq
	Announce  bool      // true: watermark gossip only, no response wanted
	Sig       crypto.Signature
	enc
}

// Type implements Message.
func (m *CatchUpReq) Type() Type { return TCatchUpReq }

// Marshal implements Message.
func (m *CatchUpReq) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes covered by Sig.
func (m *CatchUpReq) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *CatchUpReq) layout(c *coder) {
	i32(c, &m.From)
	u64(c, &m.Watermark)
	flag(c, &m.Announce)
	c.endBody()
	sig(c, &m.Sig)
}

// VerifySig checks the sender's signature.
func (m *CatchUpReq) VerifySig(v Verifier) error {
	return VerifySingle(v, m.From, m.SignedBody(), m.Sig)
}

// CatchUp answers a CatchUpReq: the committed subjects (order batches and
// any Starts committed through the normal part) with sequence numbers in
// (Base, ...], walking contiguously from Base+1 up to at most the
// responder's own delivered watermark UpTo, plus the request payloads the
// batches reference so the requester's replica can execute them. Like a
// BackLog, it carries the responder's proof of commitment for its
// highest-committed batch (MaxCommitted, nil when it holds none); subjects
// are additionally pair-endorsed individually, the same evidence the
// adopt-NewBackLog path accepts (assumption 3(a)(ii)/3(b)(ii) exclude
// pair equivocation by two simultaneous faults).
type CatchUp struct {
	From types.NodeID
	Base types.Seq // the requester watermark this answers
	UpTo types.Seq // the responder's delivered watermark
	// PairNextPropose is non-zero only when the responder is the
	// requester's active pair counterpart under the current regime: it is
	// the exact sequence number the responder expects the requester to
	// propose (endorse) next. A restarted primary adopts it verbatim so
	// its first post-restart proposal is neither a reuse (value-domain
	// fail) nor a skip (also a value-domain fail) in its shadow's eyes.
	PairNextPropose types.Seq
	MaxCommitted    *CommitProof
	Starts          []*Start
	Batches         []*OrderBatch
	Requests        []*Request
	Sig             crypto.Signature
	enc
}

// Type implements Message.
func (m *CatchUp) Type() Type { return TCatchUp }

// Marshal implements Message.
func (m *CatchUp) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes covered by Sig.
func (m *CatchUp) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *CatchUp) layout(c *coder) {
	i32(c, &m.From)
	u64(c, &m.Base)
	u64(c, &m.UpTo)
	u64(c, &m.PairNextPropose)
	optionalProof(c, &m.MaxCommitted)
	list(c, &m.Starts, maxItems, minNested, nested[*Start])
	list(c, &m.Batches, maxItems, minNested, nested[*OrderBatch])
	list(c, &m.Requests, maxEntries, minNested, nested[*Request])
	c.endBody()
	sig(c, &m.Sig)
}

// VerifySig checks the responder's signature over the full payload.
func (m *CatchUp) VerifySig(v Verifier) error {
	return VerifySingle(v, m.From, m.SignedBody(), m.Sig)
}
