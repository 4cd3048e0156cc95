package message

import (
	"bytes"
	"errors"
	"fmt"
	"unsafe"

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
// prints and the constructor Decode fills through the kind's layout (a
// Decoder carves Requests and Acks from its slabs instead). Tests and the
// fuzzer walk it too, so a kind exists exactly when it has a row.
var kinds = [...]struct {
	name string
	new  func() codable
}{
	TRequest:       {"Request", func() codable { return new(Request) }},
	TOrderBatch:    {"OrderBatch", func() codable { return NewOrderBatch(0) }},
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
// construction, so Decode primes both caches from the received bytes, and
// Sign leaves a message it built in the same shape — one buffer that is
// the wire, whose prefix is the body and which holds the signature. Only
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
// when the tail is not final yet: the path of a message whose signature is
// assigned by hand (SignSingle on SignedBody, then Marshal) or rebuilt from
// a proof's fields. Protocol code signs through Sign, which lays out once.
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

// encode runs m's layout into a pooled buffer, which is why every retained
// encoding is an exact-size copy of it: two encodings never share a backing
// array. The caller releases the coder.
func encode(m codable) *coder {
	c := coderPool.Get().(*coder)
	c.w = codec.GetWriter()
	c.run(m)
	return c
}

// run states m, tag first, into c's buffer.
func (c *coder) run(m codable) {
	c.w.U8(uint8(m.Type()))
	m.layout(c)
}

// Signed is a wire message with a signable body — every kind but the
// pair-link envelopes (PairStart, Mirror), which carry signed messages and
// are authenticated by the link.
type Signed interface {
	codable
	SignedBody() []byte
}

// Sign signs m as s into slot, which must be the signature field of m that
// s is to fill (&req.Sig, &batch.Sig1), and leaves m ready to send. The
// message is laid out once: the body is digested where it stands in the
// pooled buffer, the signature is produced in the signer's scratch and
// written after it, the tail follows, and one exact-size copy becomes the
// wire encoding, the signable body (its prefix) and *slot (a sub-slice) —
// the shape a decoded message has. The copy is carved from the signer's
// arena for the kind when it owns one (WireArenas, the runtime Envs) and is
// a heap object of its own otherwise. Every other field must be final: m is
// immutable from here on, as a sent message is.
func Sign(s Signer, m Signed, slot *crypto.Signature) error {
	return build(s, m, slot, nil, false)
}

// Countersign is Sign for the second signatory of a double-signed kind: s
// signs body||first — "the signature of the first as part of the contents" —
// into slot (&m.Sig2), first being the signature m already carries.
func Countersign(s Signer, m Signed, first crypto.Signature, slot *crypto.Signature) error {
	return build(s, m, slot, first, true)
}

func build(s Signer, m Signed, slot *crypto.Signature, first crypto.Signature, counter bool) error {
	c := coderPool.Get().(*coder)
	c.w = codec.GetWriter()
	c.signer, c.slot, c.first, c.counter = s, slot, first, counter
	c.run(m)
	err := c.err
	if err == nil && c.slot != nil {
		err = errors.New("the slot is not a signature field of its layout")
	}
	if err != nil {
		c.release()
		return fmt.Errorf("message: signing %v: %w", m.Type(), err)
	}
	wire := wireCopy(s, m.Type(), counter, c.w.Bytes())
	end := c.sigAt + c.sigLen
	*slot = wire[c.sigAt:end:end]
	*m.encoding() = enc{wire: wire, body: wire[:c.mark:c.mark]}
	c.release()
	return nil
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

// Decode parses a wire message. The returned message aliases b. It is a
// Decoder without slabs: every message is a heap object of its own.
func Decode(b []byte) (Message, error) { return decode(nil, b) }

// slabBytes is what a Slab allocates at a time: as many structs of one kind
// as fit 8 KB (73 Requests, 56 Acks). 8 KB is a size class of the
// allocator, so a slab of pooled Requests retains what they occupy and not
// a rounded-up tail (64 of them would sit in the same 8 KB), and a struct
// costs about 1/64 of an allocation.
const slabBytes = 8 << 10

// slabLen is the length of a slab of Ts.
func slabLen[T any]() int {
	var zero T
	return slabBytes / int(unsafe.Sizeof(zero))
}

// Slab hands out Ts carved from 8 KB arrays instead of allocating one each.
// The rule that makes handing out an element safe is the receive chunk's,
// on structs: an element is never rewritten once handed out; a slab holds
// one kind whose elements its owner keeps and drops together — so they
// share a fate, and one long-lived neighbour does not pin a slab of
// short-lived ones; and the collector frees a slab when the last element
// carved from it dies. A Slab belongs to one goroutine, or to whatever
// serialises its owner (an event loop). The zero value is ready; slabs are
// built on first use.
type Slab[T any] struct {
	free []T // the current slab's elements not handed out yet
}

// New returns a zero T carved from s, starting a new slab when the current
// one is spent.
func (s *Slab[T]) New() *T {
	if len(s.free) == 0 {
		s.free = make([]T, slabLen[T]())
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// Arena hands out byte copies carved from 8 KB chunks instead of allocating
// one each: the slab rule on bytes. A copy is exact-size and
// capacity-capped, so an append to it reallocates instead of writing into
// its neighbour, and it is never rewritten once handed out; an arena holds
// copies its owner keeps and drops together, so they share a fate; and the
// collector frees a chunk when the last copy carved from it dies. A copy
// larger than a quarter chunk gets a buffer of its own, so a large message
// neither strands most of a chunk nor is pinned by small neighbours. An
// Arena belongs to one goroutine, or to whatever serialises its owner (an
// event loop). The zero value is ready; chunks are built on first use.
type Arena struct {
	free []byte // the current chunk's bytes not handed out yet
}

// Copy returns a copy of b carved from a.
func (a *Arena) Copy(b []byte) []byte {
	n := len(b)
	if n > slabBytes/4 {
		return bytes.Clone(b)
	}
	if n > len(a.free) {
		a.free = make([]byte, slabBytes)
	}
	c := a.free[:n:n]
	a.free = a.free[n:]
	copy(c, b)
	return c
}

// Arenas is the one Arena per kind and signatory — first, or second of a
// double-signed kind — that a signer owning an event loop copies the
// messages it builds into. Messages of one kind built by one signatory
// share a fate: a process keeps every endorsement it builds (its tracker
// holds the batch) and every ack it credits itself (its tracker holds the
// signature), and drops its requests, proposals and fetches once the
// session ring evicts them. The zero value is ready.
type Arenas [len(kinds)][2]Arena

// wireCopy is the one exact-size copy a built message's encoding gets:
// carved from the signer's arena for the kind when it owns one, a heap
// object of its own otherwise — a bare crypto.Identity is safe for
// concurrent use, so it has no arena to offer.
func wireCopy(s Signer, t Type, counter bool, b []byte) []byte {
	o, ok := s.(interface{ WireArenas() *Arenas })
	if !ok {
		return bytes.Clone(b)
	}
	i := 0
	if counter {
		i = 1
	}
	return o.WireArenas()[t][i].Copy(b)
}

// Decoder is Decode for one goroutine's stream of messages — the engine's
// event loop, which is what serialises its use. It carves the structs of
// the two kinds a commit decodes most, Request and Ack, out of Slabs
// instead of allocating one each: a Request is pooled and an Ack is dropped
// once credited, so the elements of each slab share a fate. An OrderBatch
// is one heap object of its own — its struct and, up to inlineEntries, its
// entries in one block — and is not carved from a slab: the primary's
// forwarded duplicate of every endorsed batch is dropped on arrival while
// its neighbours are kept, so batches do not share a fate and a dropped one
// must stay collectable on its own. Every other kind is its own heap
// object, as with Decode. The zero value is ready. A nil *Decoder is
// Decode.
type Decoder struct {
	requests Slab[Request]
	acks     Slab[Ack]
}

// Decode parses a wire message, nested messages included, through d's
// slabs. The returned message aliases b. A failed decode hands nothing out:
// the elements it had carved — its own, or the nested Requests of a CatchUp
// whose tail was garbage — are blanked and carved again by later messages.
func (d *Decoder) Decode(b []byte) (Message, error) {
	if d == nil {
		return decode(nil, b)
	}
	before := *d
	m, err := decode(d, b)
	if err != nil {
		// Whatever the failed decode carved lies in what was unhanded when
		// it began; if it exhausted that and moved on, the slabs it built
		// are garbage with it.
		clear(before.requests.free)
		clear(before.acks.free)
		*d = before
	}
	return m, err
}

// alloc returns the struct a message of kind t is decoded into.
func (d *Decoder) alloc(t Type) codable {
	if d != nil {
		switch t {
		case TRequest:
			return d.requests.New()
		case TAck:
			return d.acks.New()
		}
	}
	return kinds[t].new()
}

// decode is the one decoding walk: Decode's with d nil, a Decoder's (and,
// through nested, that of every message inside one it decodes) otherwise.
func decode(d *Decoder, b []byte) (Message, error) {
	if len(b) == 0 {
		return nil, errors.New("message: empty buffer")
	}
	t := Type(b[0])
	if int(t) >= len(kinds) || kinds[t].new == nil {
		return nil, fmt.Errorf("%w: tag %d", ErrUnknownType, b[0])
	}
	m := d.alloc(t)
	c := coderPool.Get().(*coder)
	c.r, c.size, c.dec = *codec.NewReader(b), len(b), d
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

// transientSign signs digest for a signature that is copied into the
// message it belongs to on the next line: into the signer's scratch when it
// has some (ScratchSign, the runtime Envs), into a fresh slice otherwise.
func transientSign(s Signer, digest []byte) (crypto.Signature, error) {
	if sc, ok := s.(interface {
		ScratchSign([]byte) (crypto.Signature, error)
	}); ok {
		return sc.ScratchSign(digest)
	}
	return s.Sign(digest)
}

// SignSingle signs body as s and returns the signature, the caller's to
// keep. It is what Sign computes, for a caller that assigns the signature
// field by hand.
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

// SignSecond produces the endorsing second signature over body||sig1, the
// caller's to keep: what Countersign computes.
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
