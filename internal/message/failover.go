package message

import (
	"errors"
	"fmt"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// FailSignal announces the 'crash' of a signal-on-crash process pair
// (Section 3.2). At initialisation each paired process holds a fail-signal
// body pre-signed by its counterpart; on detecting a value- or time-domain
// failure it double-signs that message and broadcasts it. First is the
// pre-supplied signatory (the suspected counterpart); Second is the
// emitting detector.
type FailSignal struct {
	Pair   types.Rank // pair index (coordinator candidate rank)
	Epoch  uint64     // distinguishes successive fail-signals of the same SCR pair
	First  types.NodeID
	Second types.NodeID
	Sig1   crypto.Signature
	Sig2   crypto.Signature
	enc
}

// Type implements Message.
func (m *FailSignal) Type() Type { return TFailSignal }

// Marshal implements Message.
func (m *FailSignal) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes covered by Sig1.
func (m *FailSignal) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *FailSignal) layout(c *coder) {
	u32(c, &m.Pair)
	u64(c, &m.Epoch)
	i32(c, &m.First)
	c.endBody()
	i32(c, &m.Second)
	sig(c, &m.Sig1)
	sig(c, &m.Sig2)
}

// FailSignalBody returns the canonical pre-signed body for pair/epoch with
// first signatory first. It is what the trusted dealer (or the pair itself,
// on SCR recovery) pre-signs and exchanges.
func FailSignalBody(pair types.Rank, epoch uint64, first types.NodeID) []byte {
	return (&FailSignal{Pair: pair, Epoch: epoch, First: first}).SignedBody()
}

// Verify checks both signatures: Sig1 by First over the body, Sig2 by
// Second over body||Sig1. The two signatories must be the two processes of
// the pair (the caller supplies them from the topology).
func (m *FailSignal) Verify(v Verifier, pc, ps types.NodeID) error {
	if !((m.First == pc && m.Second == ps) || (m.First == ps && m.Second == pc)) {
		return fmt.Errorf("message: fail-signal signatories %v,%v are not pair {%v,%v}", m.First, m.Second, pc, ps)
	}
	if err := VerifyDouble(v, m.First, m.Second, m.SignedBody(), m.Sig1, m.Sig2); err != nil {
		return fmt.Errorf("message: fail-signal pair %d: %w", m.Pair, err)
	}
	return nil
}

// BackLog is the IN1 message: on receiving a fail-signal from the current
// coordinator, every process multicasts its backlog — the fail-signal, the
// committed order with the largest sequence number together with its proof
// of commitment, and all acked-but-uncommitted orders. Padding lets the
// fail-over experiments (Figure 6) control the BackLog size directly.
type BackLog struct {
	From         types.NodeID
	NewCoord     types.Rank
	View         types.View
	FailSig      *FailSignal
	MaxCommitted *CommitProof // nil when nothing has committed yet
	Uncommitted  []*OrderBatch
	Padding      []byte
	Sig          crypto.Signature
	enc
}

// Type implements Message.
func (m *BackLog) Type() Type { return TBackLog }

// Marshal implements Message.
func (m *BackLog) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes covered by Sig.
func (m *BackLog) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *BackLog) layout(c *coder) {
	i32(c, &m.From)
	u32(c, &m.NewCoord)
	u64(c, &m.View)
	if c.present(m.FailSig != nil) {
		nested(c, &m.FailSig)
	}
	optionalProof(c, &m.MaxCommitted)
	list(c, &m.Uncommitted, maxItems, minNested, nested[*OrderBatch])
	blob(c, &m.Padding)
	c.endBody()
	sig(c, &m.Sig)
}

// VerifySig checks the sender's signature.
func (m *BackLog) VerifySig(v Verifier) error {
	return VerifySingle(v, m.From, m.SignedBody(), m.Sig)
}

// Start is the IN2 message: the new coordinator's NewBackLog and start_o,
// pair-endorsed when the coordinator is a pair. It is committed through the
// normal part (IN5) like an order message with sequence number StartSeq.
type Start struct {
	Coord           types.Rank
	View            types.View
	StartSeq        types.Seq // start_o
	MaxCommittedSeq types.Seq // max{max_committed} over the n-f backlogs
	NewBackLog      []*OrderBatch
	Primary         types.NodeID
	Shadow          types.NodeID
	Sig1            crypto.Signature
	Sig2            crypto.Signature
	enc
}

// Type implements Message.
func (m *Start) Type() Type { return TStart }

// Marshal implements Message.
func (m *Start) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes covered by Sig1 (Sig2 covers body||Sig1).
func (m *Start) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *Start) layout(c *coder) {
	u32(c, &m.Coord)
	u64(c, &m.View)
	u64(c, &m.StartSeq)
	u64(c, &m.MaxCommittedSeq)
	i32(c, &m.Primary)
	i32(c, &m.Shadow)
	list(c, &m.NewBackLog, maxItems, minNested, nested[*OrderBatch])
	c.endBody()
	sig(c, &m.Sig1)
	sig(c, &m.Sig2)
}

// Endorse returns a copy of the 1-signed Start carrying s's second
// signature over body||Sig1, built as OrderBatch.Endorse builds its copy.
func (m *Start) Endorse(s Signer) (*Start, error) {
	out := *m
	out.enc = enc{}
	if err := Countersign(s, &out, out.Sig1, &out.Sig2); err != nil {
		return nil, err
	}
	return &out, nil
}

// BodyDigest identifies the Start in acks and counter-signatures.
func (m *Start) BodyDigest(v interface{ Digest([]byte) []byte }) []byte {
	return v.Digest(m.SignedBody())
}

// VerifySigs checks the Start's (possibly pair-endorsed) signatures.
func (m *Start) VerifySigs(v Verifier) error {
	return VerifyDouble(v, m.Primary, m.Shadow, m.SignedBody(), m.Sig1, m.Sig2)
}

// StartSig is the IN3 counter-signature: a process that receives an
// authentic doubly-signed Start "generates its signature for the received
// and sends its unique identifier and the signature to pc and p'c".
type StartSig struct {
	From        types.NodeID
	Coord       types.Rank
	View        types.View
	StartDigest []byte
	Sig         crypto.Signature
	enc
}

// Type implements Message.
func (m *StartSig) Type() Type { return TStartSig }

// Marshal implements Message.
func (m *StartSig) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the counter-signed bytes; verifiers of StartTuples
// rebuild them from the tuple's fields.
func (m *StartSig) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *StartSig) layout(c *coder) {
	i32(c, &m.From)
	u32(c, &m.Coord)
	u64(c, &m.View)
	blob(c, &m.StartDigest)
	c.endBody()
	sig(c, &m.Sig)
}

// VerifySig checks the counter-signature.
func (m *StartSig) VerifySig(v Verifier) error {
	return VerifySingle(v, m.From, m.SignedBody(), m.Sig)
}

// StartTuples is the IN4 message: the coordinator pair multicasts the f-1
// identifier-signature tuples it collected, completing the installation
// evidence.
type StartTuples struct {
	From        types.NodeID
	Coord       types.Rank
	View        types.View
	StartDigest []byte
	Froms       []types.NodeID
	Sigs        []crypto.Signature
	Sig         crypto.Signature
	enc
}

// Type implements Message.
func (m *StartTuples) Type() Type { return TStartTuples }

// Marshal implements Message.
func (m *StartTuples) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes covered by Sig.
func (m *StartTuples) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *StartTuples) layout(c *coder) {
	i32(c, &m.From)
	u32(c, &m.Coord)
	u64(c, &m.View)
	blob(c, &m.StartDigest)
	signatories(c, &m.Froms, &m.Sigs)
	c.endBody()
	sig(c, &m.Sig)
}

// Verify checks the outer signature and every embedded tuple signature.
func (m *StartTuples) Verify(v Verifier) error {
	if len(m.Froms) != len(m.Sigs) {
		return errors.New("message: malformed start tuples")
	}
	if err := VerifySingle(v, m.From, m.SignedBody(), m.Sig); err != nil {
		return fmt.Errorf("message: start tuples from %v: %w", m.From, err)
	}
	tuple := StartSig{Coord: m.Coord, View: m.View, StartDigest: m.StartDigest}
	for i, f := range m.Froms {
		tuple.From = f
		if err := verifyDetached(v, f, &tuple, m.Sigs[i]); err != nil {
			return fmt.Errorf("message: start tuple of %v: %w", f, err)
		}
	}
	return nil
}

// PairStart is the IN2 pair-link message: pc sends its 1-signed Start
// together with the n-f BackLogs it computed it from, so that p'c can
// verify the computation before endorsing ("p'c verifies if pc computed
// properly the Start as per the (n-f) BackLogs received with it").
type PairStart struct {
	Start    *Start // Sig1 set, Sig2 empty
	BackLogs []*BackLog
	enc
}

// Type implements Message.
func (m *PairStart) Type() Type { return TPairStart }

// Marshal implements Message.
func (m *PairStart) Marshal() []byte { return m.enc.marshal(m) }

// layout has no signable body: the pair link authenticates the envelope,
// and the Start and BackLogs inside carry their own signatures.
func (m *PairStart) layout(c *coder) {
	nested(c, &m.Start)
	list(c, &m.BackLogs, maxItems, minNested, nested[*BackLog])
}

// MirrorDir distinguishes mirrored receptions from mirrored transmissions.
type MirrorDir uint8

// Mirror directions.
const (
	MirrorRecv MirrorDir = 1
	MirrorSent MirrorDir = 2
)

// Mirror is the pair-link envelope of Section 3.1: each paired process
// forwards "to its counterpart process a copy of every message it receives
// and sends over the asynchronous network". Peer is the original sender
// (MirrorRecv) or types.Nil for multicasts (MirrorSent). Mirrors travel
// only on the private pair link, whose endpoint authenticity comes from
// the link itself; the mirrored inner message carries its own signatures.
type Mirror struct {
	Dir   MirrorDir
	Peer  types.NodeID
	Inner []byte
	enc
}

// Type implements Message.
func (m *Mirror) Type() Type { return TMirror }

// Marshal implements Message.
func (m *Mirror) Marshal() []byte { return m.enc.marshal(m) }

func (m *Mirror) layout(c *coder) {
	u8(c, &m.Dir)
	i32(c, &m.Peer)
	blob(c, &m.Inner)
}

// InnerMessage decodes the mirrored message.
func (m *Mirror) InnerMessage() (Message, error) { return Decode(m.Inner) }
