package message

import (
	"errors"
	"fmt"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// ReqID uniquely identifies a client request.
type ReqID struct {
	Client    types.NodeID
	ClientSeq uint64
}

// String renders "client<k>#<seq>".
func (r ReqID) String() string { return fmt.Sprintf("%v#%d", r.Client, r.ClientSeq) }

// Request is a client request. Clients "direct their requests to all nodes
// and thus all non-faulty processes receive each request that needs to be
// sequenced before processing" (Section 3).
type Request struct {
	Client    types.NodeID
	ClientSeq uint64
	Payload   []byte
	Sig       crypto.Signature
	enc
}

// Type implements Message.
func (m *Request) Type() Type { return TRequest }

// Marshal implements Message.
func (m *Request) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the canonical bytes the client signs; the request
// digest D(m) is the suite digest of these bytes.
func (m *Request) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *Request) layout(c *coder) {
	i32(c, &m.Client)
	u64(c, &m.ClientSeq)
	blob(c, &m.Payload)
	c.endBody()
	sig(c, &m.Sig)
}

// ID returns the request identifier.
func (m *Request) ID() ReqID { return ReqID{Client: m.Client, ClientSeq: m.ClientSeq} }

// Digest computes D(m), the digest carried in order messages ("the order
// for m does not contain m itself").
func (m *Request) Digest(v interface{ Digest([]byte) []byte }) []byte {
	return v.Digest(m.SignedBody())
}

// OrderEntry is one order decision inside a batch: the entry at index i of
// a batch with FirstSeq o assigns sequence number o+i to the request
// identified by Req with digest ReqDigest. This is the order<c, o, D(m)>
// of the paper, vectorised by the batching optimization of Section 4.3.
type OrderEntry struct {
	Req       ReqID
	ReqDigest []byte
}

// OrderBatch is a batch of order decisions produced by the coordinator.
// For SC/SCR it is doubly-signed by the coordinator pair (Primary = pc,
// Shadow = p'c); for the unpaired SC candidate C(f+1) and for CT it is
// single-signed (Shadow = Nil, empty Sig2).
type OrderBatch struct {
	Coord    types.Rank // candidate rank c
	View     types.View // SC: installation epoch; SCR/BFT-style views elsewhere
	FirstSeq types.Seq
	Entries  []OrderEntry
	Primary  types.NodeID
	Shadow   types.NodeID
	Sig1     crypto.Signature
	Sig2     crypto.Signature
	enc
}

// inlineEntries is how many entries an OrderBatch holds in its own heap
// block: every batch of the default 1 KB budget of 128 B requests (five),
// with room to spare. The block is 472 B, inside the allocator's 480 B
// size class; a larger batch spills its entries to an array of their own.
const inlineEntries = 8

// orderBatchBlock is an OrderBatch and the room for its entries, allocated
// as one object, built or decoded.
type orderBatchBlock struct {
	OrderBatch
	inline [inlineEntries]OrderEntry
}

// NewOrderBatch returns an OrderBatch with n blank entries, which share one
// heap block with the struct when n ≤ inlineEntries. It is also the kind
// table's constructor: a decode (list) fills the room of NewOrderBatch(0)
// in place when the count fits.
func NewOrderBatch(n int) *OrderBatch {
	b := new(orderBatchBlock)
	if n <= inlineEntries {
		b.Entries = b.inline[:n]
	} else {
		b.Entries = make([]OrderEntry, n)
	}
	return &b.OrderBatch
}

// Type implements Message.
func (m *OrderBatch) Type() Type { return TOrderBatch }

// Marshal implements Message.
func (m *OrderBatch) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes the primary signs (Sig1); the shadow signs
// those bytes followed by Sig1.
func (m *OrderBatch) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *OrderBatch) layout(c *coder) {
	u32(c, &m.Coord)
	u64(c, &m.View)
	u64(c, &m.FirstSeq)
	i32(c, &m.Primary)
	i32(c, &m.Shadow)
	list(c, &m.Entries, maxEntries, minOrderEntry, orderEntry)
	c.endBody()
	sig(c, &m.Sig1)
	sig(c, &m.Sig2)
}

// minOrderEntry is a client, a sequence number and an empty digest.
const minOrderEntry = 12 + minBlob

func orderEntry(c *coder, e *OrderEntry) {
	reqID(c, &e.Req)
	blob(c, &e.ReqDigest)
}

func reqID(c *coder, id *ReqID) {
	i32(c, &id.Client)
	u64(c, &id.ClientSeq)
}

// LastSeq returns the sequence number of the final entry.
func (m *OrderBatch) LastSeq() types.Seq {
	return m.FirstSeq + types.Seq(len(m.Entries)) - 1
}

// Contains reports whether the batch assigns sequence number s.
func (m *OrderBatch) Contains(s types.Seq) bool {
	return s >= m.FirstSeq && s <= m.LastSeq()
}

// EntryAt returns the entry assigning sequence number s.
func (m *OrderBatch) EntryAt(s types.Seq) (OrderEntry, bool) {
	if !m.Contains(s) {
		return OrderEntry{}, false
	}
	return m.Entries[s-m.FirstSeq], true
}

// Endorse returns a copy of the 1-signed batch carrying s's second
// signature over body||Sig1, built as Countersign builds it: the copy and
// its one buffer, sharing the entries with the original — the copy is a
// bare struct, with no inline room of its own — and none of its encoding
// (the wire bytes differ from the 1-signed ones).
func (m *OrderBatch) Endorse(s Signer) (*OrderBatch, error) {
	out := *m
	out.enc = enc{}
	if err := Countersign(s, &out, out.Sig1, &out.Sig2); err != nil {
		return nil, err
	}
	return &out, nil
}

// BodyDigest returns the digest identifying this batch in acks and proofs
// (computed over the signable body, so the copies relayed by pc and p'c
// have the same digest).
func (m *OrderBatch) BodyDigest(v interface{ Digest([]byte) []byte }) []byte {
	return v.Digest(m.SignedBody())
}

// VerifySigs checks the batch's signatures: Sig1 by Primary, and Sig2 by
// Shadow over body||Sig1 when the batch is pair-endorsed.
func (m *OrderBatch) VerifySigs(v Verifier) error {
	return VerifyDouble(v, m.Primary, m.Shadow, m.SignedBody(), m.Sig1, m.Sig2)
}

// SubjectKind distinguishes what an Ack endorses.
type SubjectKind uint8

// Ack subjects: an ordinary order batch, or a Start message committed via
// the normal part during coordinator installation (IN5).
const (
	SubjectBatch SubjectKind = 1
	SubjectStart SubjectKind = 2
)

// Ack is the N1 message of the normal part: "Multicast a signed ack (that
// also contains the received order) to all processes (including itself)".
// Subject carries the full encoded order (batch or Start) for wire-size
// fidelity; the signature binds the subject's body digest, so commit proofs
// can be verified from the digest alone.
type Ack struct {
	From          types.NodeID
	Kind          SubjectKind
	View          types.View
	FirstSeq      types.Seq
	SubjectDigest []byte
	Subject       []byte // full encoded subject message
	Sig           crypto.Signature
	enc
}

// Type implements Message.
func (m *Ack) Type() Type { return TAck }

// Marshal implements Message.
func (m *Ack) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes covered by Sig.
func (m *Ack) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *Ack) layout(c *coder) {
	i32(c, &m.From)
	u8(c, &m.Kind)
	u64(c, &m.View)
	u64(c, &m.FirstSeq)
	blob(c, &m.SubjectDigest)
	c.endBody()
	blob(c, &m.Subject)
	sig(c, &m.Sig)
}

// AckBody returns the canonical signed body of an ack with the given
// fields; it is reconstructible by proof verifiers that hold the subject
// digest but not the subject.
func AckBody(from types.NodeID, kind SubjectKind, view types.View, firstSeq types.Seq, subjectDigest []byte) []byte {
	return (&Ack{From: from, Kind: kind, View: view, FirstSeq: firstSeq, SubjectDigest: subjectDigest}).SignedBody()
}

// VerifySig checks the ack signature.
func (m *Ack) VerifySig(v Verifier) error {
	return VerifySingle(v, m.From, m.SignedBody(), m.Sig)
}

// CommitProof is the evidence retained at N3: "Commit order and retain the
// (n-f) distinct ack/order received as a proof of commitment". It stores
// the batch plus the ack signatures; the coordinator pair's own batch
// signatures count as their contribution (they transmitted the order
// itself rather than an ack).
type CommitProof struct {
	Batch  *OrderBatch
	Ackers []types.NodeID
	Sigs   []crypto.Signature
}

func (p *CommitProof) layout(c *coder) {
	nested(c, &p.Batch)
	signatories(c, &p.Ackers, &p.Sigs)
}

// optionalProof lays out a presence byte and, when set, the proof.
func optionalProof(c *coder, p **CommitProof) {
	if !c.present(*p != nil) {
		return
	}
	if c.decoding() {
		*p = new(CommitProof)
	}
	(*p).layout(c)
}

// Verify checks that the proof carries a validly signed batch and at least
// quorum distinct contributions (acks plus the pair's own signatures).
func (p *CommitProof) Verify(v Verifier, quorum int) error {
	if p == nil || p.Batch == nil {
		return errors.New("message: nil commit proof")
	}
	if len(p.Ackers) != len(p.Sigs) {
		return errors.New("message: malformed commit proof")
	}
	if err := p.Batch.VerifySigs(v); err != nil {
		return fmt.Errorf("message: proof batch: %w", err)
	}
	digest := p.Batch.BodyDigest(v)
	distinct := map[types.NodeID]bool{p.Batch.Primary: true}
	if p.Batch.Shadow != types.Nil {
		distinct[p.Batch.Shadow] = true
	}
	ack := Ack{Kind: SubjectBatch, View: p.Batch.View, FirstSeq: p.Batch.FirstSeq, SubjectDigest: digest}
	for i, from := range p.Ackers {
		ack.From = from
		if err := verifyDetached(v, from, &ack, p.Sigs[i]); err != nil {
			return fmt.Errorf("message: proof ack from %v: %w", from, err)
		}
		distinct[from] = true
	}
	if len(distinct) < quorum {
		return fmt.Errorf("message: commit proof has %d distinct contributors, need %d", len(distinct), quorum)
	}
	return nil
}
