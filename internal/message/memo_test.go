package message

import (
	"bytes"
	"testing"
)

// TestMarshalMemoized checks that Marshal and SignedBody are computed once
// and returned by reference thereafter.
func TestMarshalMemoized(t *testing.T) {
	idents, _ := testIdentities(t, 8)
	b := testBatch(t, idents, 1, 3)
	w1, w2 := b.Marshal(), b.Marshal()
	if &w1[0] != &w2[0] {
		t.Error("Marshal not memoized: distinct backing arrays")
	}
	s1, s2 := b.SignedBody(), b.SignedBody()
	if &s1[0] != &s2[0] {
		t.Error("SignedBody not memoized: distinct backing arrays")
	}
}

// TestDecodePrimesWireCache checks the zero-copy relay property: a decoded
// message re-marshals to the exact buffer it was decoded from.
func TestDecodePrimesWireCache(t *testing.T) {
	idents, _ := testIdentities(t, 8)
	b := testBatch(t, idents, 1, 2)
	raw := b.Marshal()
	decoded, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	out := decoded.Marshal()
	if &out[0] != &raw[0] {
		t.Error("decoded message re-encoded on Marshal; want the received buffer back")
	}
}

// TestEndorsedGetsFreshWire checks that the shadow's endorsement copy does
// not inherit the 1-signed wire encoding: it is built in a buffer of its
// own, which is its wire, its body and its Sig2, and carries exactly the
// signature SignSecond computes.
func TestEndorsedGetsFreshWire(t *testing.T) {
	idents, _ := testIdentities(t, 8)
	b := &OrderBatch{Coord: 1, View: 1, FirstSeq: 1, Primary: 0, Shadow: 5}
	req := testRequest(t, idents, 1, "r")
	b.Entries = []OrderEntry{{Req: req.ID(), ReqDigest: req.Digest(idents[0])}}
	b.Sig1 = sign(t, idents[0], b.SignedBody())
	oneSigned := b.Marshal() // primes the wire cache pre-endorsement

	sig2 := signSecond(t, idents[5], b.SignedBody(), b.Sig1)
	endorsed := new(OrderBatch)
	if err := b.EndorseInto(idents[5], endorsed); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(endorsed.Marshal(), oneSigned) {
		t.Fatal("endorsed batch reused the 1-signed wire encoding")
	}
	if len(b.Sig2) != 0 || !bytes.Equal(b.Marshal(), oneSigned) {
		t.Error("endorsing changed the 1-signed original")
	}
	// The endorsed copy round-trips with Sig2 present, over the same body.
	decoded, err := Decode(endorsed.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got := decoded.(*OrderBatch); !bytes.Equal(got.Sig2, sig2) {
		t.Error("endorsed wire encoding lost Sig2")
	}
	if !bytes.Equal(b.SignedBody(), endorsed.SignedBody()) {
		t.Error("endorsement changed the signable body (Sig2 does not cover itself)")
	}
	if &endorsed.SignedBody()[0] != &endorsed.Marshal()[0] {
		t.Error("the endorsed copy's body should be the prefix of its own wire encoding")
	}
	if err := endorsed.VerifySigs(idents[3]); err != nil {
		t.Errorf("VerifySigs(endorsed): %v", err)
	}

	// Same contract for Start.
	st := &Start{Coord: 2, View: 2, StartSeq: 5, Primary: 1, Shadow: 6}
	st.Sig1 = sign(t, idents[1], st.SignedBody())
	oneSignedStart := st.Marshal()
	endorsedStart, err := st.Endorse(idents[6])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(endorsedStart.Marshal(), oneSignedStart) {
		t.Fatal("endorsed Start reused the 1-signed wire encoding")
	}
	if err := endorsedStart.VerifySigs(idents[3]); err != nil {
		t.Errorf("VerifySigs(endorsed Start): %v", err)
	}
}
