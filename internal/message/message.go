package message

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/sof-repro/sof/internal/codec"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// Type tags every wire message.
type Type uint8

// Wire message types.
const (
	TRequest Type = iota + 1
	TOrderBatch
	TAck
	TFailSignal
	TBackLog
	TStart
	TStartSig
	TStartTuples
	TPairStart
	TMirror
	TPrePrepare
	TPrepare
	TCommit
	TBFTViewChange
	TBFTNewView
	TUnwilling
	TReply
	TPairBeat
	TCatchUpReq
	TCatchUp
	TFetchReq
	TRejected
)

// kinds is the one table of wire kinds, indexed by tag: the name Type.String
// prints and the constructor Decode fills through the kind's layout. Tests
// and the fuzzer walk it too, so a kind exists exactly when it has a row.
var kinds = [...]struct {
	name string
	new  func() codable
}{
	TRequest:       {"Request", func() codable { return new(Request) }},
	TOrderBatch:    {"OrderBatch", func() codable { return new(OrderBatch) }},
	TAck:           {"Ack", func() codable { return new(Ack) }},
	TFailSignal:    {"FailSignal", func() codable { return new(FailSignal) }},
	TBackLog:       {"BackLog", func() codable { return new(BackLog) }},
	TStart:         {"Start", func() codable { return new(Start) }},
	TStartSig:      {"StartSig", func() codable { return new(StartSig) }},
	TStartTuples:   {"StartTuples", func() codable { return new(StartTuples) }},
	TPairStart:     {"PairStart", func() codable { return new(PairStart) }},
	TMirror:        {"Mirror", func() codable { return new(Mirror) }},
	TPrePrepare:    {"PrePrepare", func() codable { return new(PrePrepare) }},
	TPrepare:       {"Prepare", func() codable { return new(Prepare) }},
	TCommit:        {"Commit", func() codable { return new(Commit) }},
	TBFTViewChange: {"BFTViewChange", func() codable { return new(BFTViewChange) }},
	TBFTNewView:    {"BFTNewView", func() codable { return new(BFTNewView) }},
	TUnwilling:     {"Unwilling", func() codable { return new(Unwilling) }},
	TReply:         {"Reply", func() codable { return new(Reply) }},
	TPairBeat:      {"PairBeat", func() codable { return new(PairBeat) }},
	TCatchUpReq:    {"CatchUpReq", func() codable { return new(CatchUpReq) }},
	TCatchUp:       {"CatchUp", func() codable { return new(CatchUp) }},
	TFetchReq:      {"FetchReq", func() codable { return new(FetchReq) }},
	TRejected:      {"Rejected", func() codable { return new(Rejected) }},
}

// String returns the message type name.
func (t Type) String() string {
	if int(t) < len(kinds) && kinds[t].new != nil {
		return kinds[t].name
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Message is any wire message.
type Message interface {
	// Type returns the wire type tag.
	Type() Type
	// Marshal returns the full wire encoding, signatures included. The
	// encoding is computed once and cached; callers must not modify it.
	Marshal() []byte
}

// codable is what a message type gives the driver below: its tag, its
// layout and, through the embedded enc, its encoding caches.
type codable interface {
	Message
	// layout states the wire layout after the tag once, for both
	// directions: the signable body's fields, c.endBody(), then the tail
	// (signatures and anything else the signature does not cover).
	layout(c *coder)
	encoding() *enc
}

// enc is embedded in every message struct to memoize its two canonical
// encodings. A message is encoded at most once however many times it is
// sent, sized, digested or relayed, and a decoded message is never encoded
// at all: the signable body is a prefix of the wire encoding by
// construction, so Decode primes both caches from the received bytes. Only
// the driver in this file assigns the caches.
type enc struct {
	wire []byte // full wire encoding, signatures included
	body []byte // signable body bytes
}

func (e *enc) encoding() *enc { return e }

// marshal returns m's memoized wire encoding. It and signedBody inline, so
// a memoized call costs one nil check.
func (e *enc) marshal(m codable) []byte {
	if e.wire == nil {
		e.fill(m, true)
	}
	return e.wire
}

// signedBody returns m's memoized signable body.
func (e *enc) signedBody(m codable) []byte {
	if e.body == nil {
		e.fill(m, false)
	}
	return e.body
}

// fill encodes m and caches the whole encoding, or only its signable body
// when the tail is not final yet (a message is signed before it is sent).
func (e *enc) fill(m codable, wire bool) {
	c := encode(m)
	if wire {
		e.prime(bytes.Clone(c.w.Bytes()), c.mark)
	} else {
		e.body = bytes.Clone(c.w.Bytes()[:c.mark])
	}
	c.release()
}

// prime caches a complete wire encoding and, unless the body is cached
// already, the body as its prefix up to mark (0 for an unsigned kind).
func (e *enc) prime(wire []byte, mark int) {
	e.wire = wire
	if e.body == nil && mark > 0 {
		e.body = wire[:mark:mark]
	}
}

// endorsed returns the caches for a copy of the message that differs only
// in its tail (the shadow adding Sig2): the body is shared, the wire is not.
func (e *enc) endorsed(m codable) enc { return enc{body: e.signedBody(m)} }

// encode runs m's layout into a pooled buffer, which is why every retained
// encoding is an exact-size copy of it: two encodings never share a backing
// array. The caller releases the coder.
func encode(m codable) *coder {
	c := coderPool.Get().(*coder)
	c.w = codec.GetWriter()
	c.w.U8(uint8(m.Type()))
	m.layout(c)
	return c
}

// verifyDetached checks sig by signer over the signable body of m, a
// message rebuilt from the fields a proof carries; nothing is cached on m,
// so one m can be re-pointed at each signatory of the proof in turn.
func verifyDetached(v Verifier, signer types.NodeID, m codable, sig crypto.Signature) error {
	c := encode(m)
	err := v.Verify(signer, transientDigest(v, c.w.Bytes()[:c.mark]), sig)
	c.release()
	return err
}

// ErrUnknownType is returned by Decode for an unrecognised type tag.
var ErrUnknownType = errors.New("message: unknown message type")

// Decode parses a wire message. The returned message aliases b.
func Decode(b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, errors.New("message: empty buffer")
	}
	t := Type(b[0])
	if int(t) >= len(kinds) || kinds[t].new == nil {
		return nil, fmt.Errorf("%w: tag %d", ErrUnknownType, b[0])
	}
	m := kinds[t].new()
	c := coderPool.Get().(*coder)
	c.r, c.size = *codec.NewReader(b), len(b)
	c.r.U8()
	m.layout(c)
	mark, err := c.mark, c.finish()
	c.release()
	if err != nil {
		return nil, fmt.Errorf("message: decoding %v: %w", t, err)
	}
	// finish guarantees b is exactly the message's wire encoding and every
	// layout decodes canonically (re-encoding the fields yields b), so b
	// is both caches: relays never re-encode, verifies never re-build.
	m.encoding().prime(b, mark)
	return m, nil
}

// Signer produces signatures for one process; *crypto.Identity satisfies
// it, as do the runtime environments (which additionally charge modelled
// CPU costs in simulation).
type Signer interface {
	Digest(data []byte) []byte
	Sign(digest []byte) (crypto.Signature, error)
}

// Verifier checks other processes' signatures.
type Verifier interface {
	Digest(data []byte) []byte
	Verify(signer types.NodeID, digest []byte, sig crypto.Signature) error
}

// SignerVerifier combines both roles.
type SignerVerifier interface {
	Signer
	Verifier
}

// digester is the half Signer and Verifier share.
type digester interface {
	Digest(data []byte) []byte
}

// transientDigest digests data for a result that is signed or verified on
// the spot and then dropped. A signer whose calls one goroutine serialises
// (the runtime Envs) owns scratch for exactly that and offers it as
// ScratchDigest; anything else — a bare crypto.Identity is safe for
// concurrent use, so it has no scratch to offer — digests into a fresh
// slice. Each result is consumed before the next is asked for.
func transientDigest(d digester, data []byte) []byte {
	if s, ok := d.(interface{ ScratchDigest([]byte) []byte }); ok {
		return s.ScratchDigest(data)
	}
	return d.Digest(data)
}

// SignSingle signs body as s and returns the signature.
func SignSingle(s Signer, body []byte) (crypto.Signature, error) {
	return s.Sign(transientDigest(s, body))
}

// VerifySingle checks a single signature over body.
func VerifySingle(v Verifier, signer types.NodeID, body []byte, sig crypto.Signature) error {
	return v.Verify(signer, transientDigest(v, body), sig)
}

// counterSignDigest computes Digest(body || sig1), what the second
// signatory of a double-signed message signs, through a pooled buffer.
func counterSignDigest(d digester, body []byte, sig1 crypto.Signature) []byte {
	w := codec.GetWriter()
	w.Raw(body)
	w.Raw(sig1)
	digest := transientDigest(d, w.Bytes())
	w.Release()
	return digest
}

// SignSecond produces the endorsing second signature over body||sig1.
func SignSecond(s Signer, body []byte, sig1 crypto.Signature) (crypto.Signature, error) {
	return s.Sign(counterSignDigest(s, body, sig1))
}

// VerifyDouble checks a doubly-signed body: sig1 by first over body, sig2 by
// second over body||sig1. When second == types.Nil the message is accepted
// as single-signed with an empty sig2 (the unpaired coordinator C(f+1) and
// the CT baseline emit such messages).
func VerifyDouble(v Verifier, first, second types.NodeID, body []byte, sig1, sig2 crypto.Signature) error {
	if err := v.Verify(first, transientDigest(v, body), sig1); err != nil {
		return fmt.Errorf("message: first signature: %w", err)
	}
	if second == types.Nil {
		if len(sig2) != 0 {
			return errors.New("message: unexpected second signature from unpaired source")
		}
		return nil
	}
	if err := v.Verify(second, counterSignDigest(v, body, sig1), sig2); err != nil {
		return fmt.Errorf("message: second signature: %w", err)
	}
	return nil
}
