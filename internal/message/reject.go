package message

import (
	"errors"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// Rejected is a node's typed backpressure signal to a client: the named
// request was refused at admission (rate limit, lockout, per-client
// pending cap or overload brownout) and will not be ordered by this
// node. Code carries the ingress decision code and RetryAfter the
// node's backoff hint. It is signed by the rejecting node, so a client
// distinguishes real backpressure from an attacker spoofing rejections.
type Rejected struct {
	From      types.NodeID
	Client    types.NodeID
	ClientSeq uint64
	Code      uint8
	// RetryAfter is the node's backoff hint; it rides the wire as
	// non-negative nanoseconds.
	RetryAfter time.Duration
	Sig        crypto.Signature
	enc
}

// Type implements Message.
func (m *Rejected) Type() Type { return TRejected }

// Marshal implements Message.
func (m *Rejected) Marshal() []byte { return m.enc.marshal(m) }

// SignedBody returns the bytes covered by Sig.
func (m *Rejected) SignedBody() []byte { return m.enc.signedBody(m) }

func (m *Rejected) layout(c *coder) {
	i32(c, &m.From)
	i32(c, &m.Client)
	u64(c, &m.ClientSeq)
	u8(c, &m.Code)
	// A negative hint is sent as zero, and a wire value no Duration can
	// hold is refused rather than wrapped into a negative back-off.
	retry := uint64(max(m.RetryAfter, 0))
	u64(c, &retry)
	if c.decoding() {
		if m.RetryAfter = time.Duration(retry); m.RetryAfter < 0 {
			c.fail(errors.New("retry-after overflows a duration"))
		}
	}
	c.endBody()
	sig(c, &m.Sig)
}

// VerifySig checks the rejecting node's signature.
func (m *Rejected) VerifySig(v Verifier) error {
	return VerifySingle(v, m.From, m.SignedBody(), m.Sig)
}
