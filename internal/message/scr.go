package message

import (
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// Unwilling is the SCR view-change refusal (Section 4.4): if the candidate
// pair of the proposed view v does not have status up, it "multicasts an
// Unwilling(v) message which includes the fail-signal message as well".
// Receivers echo it back to both pair members and vote for view v+1.
type Unwilling struct {
	From    types.NodeID
	View    types.View
	FailSig *FailSignal
	Sig     crypto.Signature
	enc
}

// Type implements Message.
func (m *Unwilling) Type() Type { return TUnwilling }

// Marshal implements Message.
func (m *Unwilling) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes covered by Sig.
func (m *Unwilling) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *Unwilling) layout(c *coder) {
	i32(c, &m.From)
	u64(c, &m.View)
	if c.present(m.FailSig != nil) {
		nested(c, &m.FailSig)
	}
	c.endBody()
	sig(c, &m.Sig)
}

// VerifySig checks the sender's signature.
func (m *Unwilling) VerifySig(v Verifier) error {
	return VerifySingle(v, m.From, m.SignedBody(), m.Sig)
}

// PairBeat is the intra-pair liveness and recovery probe used by the SCR
// pair status machine: under assumption 3(b)(i) timeliness suspicions may
// be false, and a down pair that exchanges timely beats again optimistically
// resumes (signal-on-crash-and-recovery semantics). Epoch counts the pair's
// fail-signal incarnations; a beat for epoch e offers to restart the pair
// in epoch e with the embedded fresh pre-signed fail-signal body signature.
type PairBeat struct {
	From       types.NodeID
	Epoch      uint64
	BeatSeq    uint64
	FailSigSig crypto.Signature // From's pre-signature of FailSignalBody(pair, Epoch, From)
	Sig        crypto.Signature
	enc
}

// Type implements Message.
func (m *PairBeat) Type() Type { return TPairBeat }

// Marshal implements Message.
func (m *PairBeat) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes covered by Sig.
func (m *PairBeat) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *PairBeat) layout(c *coder) {
	i32(c, &m.From)
	u64(c, &m.Epoch)
	u64(c, &m.BeatSeq)
	blob(c, &m.FailSigSig)
	c.endBody()
	sig(c, &m.Sig)
}

// VerifySig checks the sender's signature.
func (m *PairBeat) VerifySig(v Verifier) error {
	return VerifySingle(v, m.From, m.SignedBody(), m.Sig)
}

// Reply is a replica's response to a client after executing its request at
// the committed sequence number. A client accepts a result once f+1
// replicas report the same result for the same request.
type Reply struct {
	From      types.NodeID
	Client    types.NodeID
	ClientSeq uint64
	Seq       types.Seq
	Result    []byte
	Sig       crypto.Signature
	enc
}

// Type implements Message.
func (m *Reply) Type() Type { return TReply }

// Marshal implements Message.
func (m *Reply) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes covered by Sig.
func (m *Reply) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *Reply) layout(c *coder) {
	i32(c, &m.From)
	i32(c, &m.Client)
	u64(c, &m.ClientSeq)
	u64(c, &m.Seq)
	blob(c, &m.Result)
	c.endBody()
	sig(c, &m.Sig)
}

// VerifySig checks the replica's signature.
func (m *Reply) VerifySig(v Verifier) error {
	return VerifySingle(v, m.From, m.SignedBody(), m.Sig)
}
