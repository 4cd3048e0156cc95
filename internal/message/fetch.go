package message

import (
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// maxFetchItems bounds the request-ID list of one FetchReq; anything
// larger on the wire is garbage, not a plausible miss set.
const maxFetchItems = 1 << 12

// FetchReq is the payload fetch of digest-only ordering: a process whose
// shadow check or delivered batch waits on request bodies that have not
// arrived asks a peer for them by request ID. The answer is simply the
// stored requests re-sent — each is self-verifying, so a FetchReq never
// needs to be trusted, only rate-limited. (Missing orders and commits are
// pulled with a CatchUpReq instead.)
type FetchReq struct {
	From types.NodeID
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
	list(c, &m.Reqs, maxFetchItems, 12, reqID) // 4-byte client, 8-byte sequence
	c.endBody()
	sig(c, &m.Sig)
}

// VerifySig checks the requester's signature.
func (m *FetchReq) VerifySig(v Verifier) error {
	return VerifySingle(v, m.From, m.SignedBody(), m.Sig)
}
