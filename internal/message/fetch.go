package message

import (
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// maxFetchItems bounds the sequence and request-ID lists of one FetchReq;
// anything larger on the wire is garbage, not a plausible miss set.
const maxFetchItems = 1 << 12

// FetchReq is the fetch-on-miss fallback of digest-only ordering: a
// process that holds quorum evidence for a subject it never received (acks
// no longer embed subjects), or that committed a batch whose request
// payloads have not all arrived, asks a peer for the missing pieces by
// sequence number (Seqs: endorsed order batches) and request ID (Reqs:
// request payloads). The answer is simply the stored messages re-sent —
// each is self-verifying, so a FetchReq never needs to be trusted, only
// rate-limited.
type FetchReq struct {
	From types.NodeID
	Seqs []types.Seq
	Reqs []ReqID
	Sig  crypto.Signature
	enc
}

// Type implements Message.
func (m *FetchReq) Type() Type { return TFetchReq }

// Marshal implements Message.
func (m *FetchReq) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes covered by Sig.
func (m *FetchReq) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *FetchReq) layout(c *coder) {
	i32(c, &m.From)
	list(c, &m.Seqs, maxFetchItems, 8, u64[types.Seq]) // 8-byte sequence numbers
	list(c, &m.Reqs, maxFetchItems, 12, reqID)         // 4-byte client, 8-byte sequence
	c.endBody()
	sig(c, &m.Sig)
}

// VerifySig checks the requester's signature.
func (m *FetchReq) VerifySig(v Verifier) error {
	return VerifySingle(v, m.From, m.SignedBody(), m.Sig)
}
