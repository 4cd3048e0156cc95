package message

import (
	"errors"
	"fmt"
	"sync"

	"github.com/sof-repro/sof/internal/codec"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// coder walks one layout in one direction: it encodes the fields it is
// handed into w, or fills them from r. A layout is therefore written once
// and cannot disagree with itself between Marshal, SignedBody and Decode.
//
// Coders are pooled because layouts are reached through an interface call:
// a coder on the caller's stack would escape and cost every Marshal and
// Decode one more allocation.
type coder struct {
	w    *codec.Writer // non-nil while encoding
	r    codec.Reader  // the input while decoding
	size int           // decoding: length of the input, tag included
	dec  *Decoder      // decoding: whose slabs nested messages are carved from
	mark int           // where the signable body ends; 0 until endBody
	err  error         // first failure r does not know about

	// Set while a message is being built (build): who signs, which
	// signature field of the layout that fills, and — for the second
	// signatory of a double-signed kind — the first signature, which the
	// second covers. sigAt/sigLen say where the signature landed in w.
	signer        Signer
	slot          *crypto.Signature
	first         crypto.Signature
	counter       bool
	sigAt, sigLen int
}

var coderPool = sync.Pool{New: func() any { return new(coder) }}

// release returns c and its buffer to their pools; bytes obtained from c.w
// are invalid afterwards.
func (c *coder) release() {
	if c.w != nil {
		c.w.Release()
	}
	*c = coder{}
	coderPool.Put(c)
}

func (c *coder) decoding() bool { return c.w == nil }

// endBody marks the end of the signable body: everything the layout stated
// so far, tag included, is what the (first) signature covers.
func (c *coder) endBody() {
	if c.decoding() {
		c.mark = c.size - c.r.Remaining()
	} else {
		c.mark = c.w.Len()
	}
}

func (c *coder) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

func (c *coder) failed() bool { return c.err != nil || c.r.Err() != nil }

// finish reports the first decode failure, trailing bytes included.
func (c *coder) finish() error {
	if c.err != nil {
		return c.err
	}
	return c.r.Finish()
}

func u8[T ~uint8](c *coder, p *T) {
	if c.decoding() {
		*p = T(c.r.U8())
	} else {
		c.w.U8(uint8(*p))
	}
}

// u32 also carries types.Rank, an int that rides the wire as 32 bits.
func u32[T ~uint32 | ~int](c *coder, p *T) {
	if c.decoding() {
		*p = T(c.r.U32())
	} else {
		c.w.U32(uint32(*p))
	}
}

func i32[T ~int32](c *coder, p *T) {
	if c.decoding() {
		*p = T(c.r.I32())
	} else {
		c.w.I32(int32(*p))
	}
}

func u64[T ~uint64](c *coder, p *T) {
	if c.decoding() {
		*p = T(c.r.U64())
	} else {
		c.w.U64(uint64(*p))
	}
}

func flag(c *coder, p *bool) {
	if c.decoding() {
		*p = c.r.Bool()
	} else {
		c.w.Bool(*p)
	}
}

// blob is a length-prefixed byte string; decoded, it aliases the input.
func blob[T ~[]byte](c *coder, p *T) {
	if c.decoding() {
		*p = c.r.Bytes32()
	} else {
		c.w.Bytes32(*p)
	}
}

// sig lays out one signature field of the tail. In a build the field named
// as the slot does not exist yet: it is produced here, over the body the
// layout has just finished stating, and written straight into the encoding.
func sig(c *coder, p *crypto.Signature) {
	if p != c.slot {
		blob(c, p)
		return
	}
	if c.mark == 0 {
		c.fail(errors.New("signature field precedes the end of the signable body"))
		return
	}
	body := c.w.Bytes()[:c.mark]
	var digest []byte
	if c.counter {
		digest = counterSignDigest(c.signer, body, c.first)
	} else {
		digest = transientDigest(c.signer, body)
	}
	s, err := transientSign(c.signer, digest)
	if err != nil {
		c.fail(err)
		return
	}
	c.w.Bytes32(s)
	c.sigAt, c.sigLen = c.w.Len()-len(s), len(s)
	c.slot = nil // filled
}

// present lays out the presence byte of an optional field.
func (c *coder) present(have bool) bool {
	flag(c, &have)
	return have
}

// Plausibility caps on element counts, and the fewest wire bytes one
// element can occupy, for count's two bounds.
const (
	maxItems   = 1 << 16 // nested messages, signatories or certificates in one list
	maxEntries = 1 << 20 // order entries in a batch, requests in a catch-up
	minBlob    = 4       // an empty byte string: its length prefix
	minNested  = 5       // a nested message: its length prefix and its tag
)

// count lays out an element count. Decoding refuses one above max, the
// kind's plausibility cap, and one the unread input cannot hold at minSize
// bytes an element — so what a frame makes Decode allocate is bounded by
// the frame's own length, before any signature is checked.
func (c *coder) count(n, max, minSize int) int {
	if !c.decoding() {
		c.w.U32(uint32(n))
		return n
	}
	got := c.r.U32()
	if c.failed() {
		return 0
	}
	if uint64(got) > uint64(max) || int(got) > c.r.Remaining()/minSize {
		c.fail(fmt.Errorf("implausible element count %d", got))
		return 0
	}
	return int(got)
}

// list lays out a count followed by that many elements of at least minSize
// encoded bytes each. Decoding fills the room *p already has when it is
// enough (an OrderBatch's inline entries), capped at the count so an
// append never writes into the room in place, and a new array otherwise.
func list[T any](c *coder, p *[]T, max, minSize int, elem func(*coder, *T)) {
	n := c.count(len(*p), max, minSize)
	if c.decoding() {
		switch {
		case n == 0:
			*p = nil
		case n <= cap(*p):
			*p = (*p)[:n:n]
		default:
			*p = make([]T, n)
		}
	}
	for i := range *p {
		elem(c, &(*p)[i])
	}
}

// signatories lays out a count followed by (signatory, signature) pairs,
// which proofs hold as two parallel slices.
func signatories(c *coder, ids *[]types.NodeID, sigs *[]crypto.Signature) {
	n := c.count(len(*ids), maxItems, 4+minBlob)
	if c.decoding() && n > 0 {
		*ids, *sigs = make([]types.NodeID, n), make([]crypto.Signature, n)
	}
	for i := range *ids {
		i32(c, &(*ids)[i])
		blob(c, &(*sigs)[i])
	}
}

// nested lays out a complete message of kind T as a length-prefixed byte
// string. Decoding accepts only that kind: a well-formed message of another
// kind in T's place is a malformed frame, never a silently absent field.
func nested[T Message](c *coder, p *T) {
	if !c.decoding() {
		c.w.Bytes32((*p).Marshal())
		return
	}
	raw := c.r.Bytes32()
	if c.failed() {
		return
	}
	inner, err := decode(c.dec, raw)
	if err != nil {
		c.fail(fmt.Errorf("nested %T: %w", *p, err))
		return
	}
	m, ok := inner.(T)
	if !ok {
		c.fail(fmt.Errorf("nested %T has type %v", *p, inner.Type()))
		return
	}
	*p = m
}
