package message

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// testIdentities issues HMAC identities 0..n-1 plus one client identity.
func testIdentities(t *testing.T, n int) (map[types.NodeID]*crypto.Identity, *crypto.Keyring) {
	t.Helper()
	ids := make([]types.NodeID, 0, n+1)
	for i := 0; i < n; i++ {
		ids = append(ids, types.NodeID(i))
	}
	ids = append(ids, types.ClientID(0))
	idents, ring, err := crypto.NewDealer(crypto.NewHMACSuite()).Issue(ids)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	return idents, ring
}

func sign(t *testing.T, id *crypto.Identity, body []byte) crypto.Signature {
	t.Helper()
	sig, err := SignSingle(id, body)
	if err != nil {
		t.Fatalf("SignSingle: %v", err)
	}
	return sig
}

func signSecond(t *testing.T, id *crypto.Identity, body []byte, sig1 crypto.Signature) crypto.Signature {
	t.Helper()
	sig, err := SignSecond(id, body, sig1)
	if err != nil {
		t.Fatalf("SignSecond: %v", err)
	}
	return sig
}

func testRequest(t *testing.T, idents map[types.NodeID]*crypto.Identity, cseq uint64, payload string) *Request {
	t.Helper()
	req := &Request{Client: types.ClientID(0), ClientSeq: cseq, Payload: []byte(payload)}
	req.Sig = sign(t, idents[types.ClientID(0)], req.SignedBody())
	return req
}

// testBatch builds a pair-endorsed batch signed by 0 (primary) and 5
// (shadow) covering seqs [first, first+k).
func testBatch(t *testing.T, idents map[types.NodeID]*crypto.Identity, first types.Seq, k int) *OrderBatch {
	t.Helper()
	suite := idents[0].Suite()
	b := &OrderBatch{
		Coord: 1, View: 1, FirstSeq: first,
		Primary: 0, Shadow: 5,
	}
	for i := 0; i < k; i++ {
		req := &Request{Client: types.ClientID(0), ClientSeq: uint64(first) + uint64(i), Payload: []byte("req")}
		b.Entries = append(b.Entries, OrderEntry{Req: req.ID(), ReqDigest: suite.Digest(req.SignedBody())})
	}
	b.Sig1 = sign(t, idents[0], b.SignedBody())
	b.Sig2 = signSecond(t, idents[5], b.SignedBody(), b.Sig1)
	return b
}

// roundTrip marshals, decodes and compares with reflect.DeepEqual modulo
// nil-vs-empty byte slices.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	raw := m.Marshal()
	got, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode(%v): %v", m.Type(), err)
	}
	if got.Type() != m.Type() {
		t.Fatalf("round trip changed type: %v -> %v", m.Type(), got.Type())
	}
	if !bytes.Equal(got.Marshal(), raw) {
		t.Fatalf("%v: re-marshal differs from original", m.Type())
	}
	return got
}

// TestRoundTripAllTypes round-trips the sample of every kind in the table:
// Decode must accept it, prime both caches from the received bytes, and
// yield fields that re-encode to exactly those bytes.
func TestRoundTripAllTypes(t *testing.T) {
	for typ, m := range samples() {
		t.Run(typ.String(), func(t *testing.T) {
			in := m.Marshal()
			got := roundTrip(t, m)
			if signed, ok := got.(interface{ SignedBody() []byte }); ok {
				if body := signed.SignedBody(); len(body) == 0 || &body[0] != &in[0] {
					t.Error("Decode did not prime the signed body from the received bytes")
				}
			}
			// Spot-check structural equality for value-heavy types.
			switch want := m.(type) {
			case *OrderBatch:
				g := got.(*OrderBatch)
				if g.FirstSeq != want.FirstSeq || !reflect.DeepEqual(g.Entries, want.Entries) ||
					g.Primary != want.Primary || g.Shadow != want.Shadow {
					t.Errorf("OrderBatch fields changed: %+v vs %+v", g, want)
				}
			case *BackLog:
				g := got.(*BackLog)
				if g.From != want.From || len(g.Uncommitted) != len(want.Uncommitted) ||
					len(g.Padding) != len(want.Padding) || (g.FailSig == nil) != (want.FailSig == nil) {
					t.Errorf("BackLog fields changed")
				}
			case *BFTNewView:
				g := got.(*BFTNewView)
				if !reflect.DeepEqual(g.ViewChanges, want.ViewChanges) || len(g.PrePrepares) != 1 {
					t.Errorf("BFTNewView fields changed")
				}
			}
			checkCanonical(t, got, in)
		})
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},                      // tag 0 invalid
		{255},                    // unknown tag
		{byte(TOrderBatch)},      // truncated
		{byte(TAck), 1, 2, 3},    // truncated
		{byte(TFailSignal), 0x1}, // truncated
	}
	for _, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("Decode(%v): want error", b)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	idents, _ := testIdentities(t, 8)
	raw := testRequest(t, idents, 1, "x").Marshal()
	raw = append(raw, 0xEE)
	if _, err := Decode(raw); err == nil {
		t.Error("Decode with trailing byte: want error")
	}
}

func TestOrderBatchSeqHelpers(t *testing.T) {
	idents, _ := testIdentities(t, 8)
	b := testBatch(t, idents, 10, 3) // seqs 10,11,12
	if got := b.LastSeq(); got != 12 {
		t.Errorf("LastSeq = %d, want 12", got)
	}
	for _, s := range []types.Seq{10, 11, 12} {
		if !b.Contains(s) {
			t.Errorf("Contains(%d) = false", s)
		}
		e, ok := b.EntryAt(s)
		if !ok || e.Req.ClientSeq != uint64(s) {
			t.Errorf("EntryAt(%d) = %+v, %v", s, e, ok)
		}
	}
	for _, s := range []types.Seq{9, 13, 0} {
		if b.Contains(s) {
			t.Errorf("Contains(%d) = true", s)
		}
		if _, ok := b.EntryAt(s); ok {
			t.Errorf("EntryAt(%d) succeeded", s)
		}
	}
}

func TestVerifyDoubleEndorsement(t *testing.T) {
	idents, _ := testIdentities(t, 8)
	b := testBatch(t, idents, 1, 2)
	if err := b.VerifySigs(idents[3]); err != nil {
		t.Errorf("VerifySigs(valid pair batch): %v", err)
	}

	// Tamper with an entry: both signatures must fail to cover it. A struct
	// copy carries the memoized encodings, so a test that mutates fields
	// must reset them — on the wire, tampering always yields a freshly
	// decoded message whose caches match its fields.
	tampered := *b
	tampered.enc = enc{}
	tampered.Entries = append([]OrderEntry(nil), b.Entries...)
	tampered.Entries[0].ReqDigest = idents[0].Digest([]byte("evil"))
	if err := tampered.VerifySigs(idents[3]); err == nil {
		t.Error("VerifySigs(tampered batch): want error")
	}

	// Swap the endorser: second signature must not verify as someone else.
	wrongShadow := *b
	wrongShadow.enc = enc{}
	wrongShadow.Shadow = 6
	if err := wrongShadow.VerifySigs(idents[3]); err == nil {
		t.Error("VerifySigs(wrong shadow): want error")
	}

	// A single-signed batch from an unpaired coordinator.
	single := &OrderBatch{Coord: 3, View: 3, FirstSeq: 1, Primary: 2, Shadow: types.Nil,
		Entries: b.Entries}
	single.Sig1 = sign(t, idents[2], single.SignedBody())
	if err := single.VerifySigs(idents[3]); err != nil {
		t.Errorf("VerifySigs(single-signed): %v", err)
	}
	// ... but an unexpected second signature on an unpaired batch is rejected.
	single2 := *single
	single2.enc = enc{}
	single2.Sig2 = crypto.Signature{1, 2}
	if err := single2.VerifySigs(idents[3]); err == nil {
		t.Error("VerifySigs(unpaired with sig2): want error")
	}
}

func TestFailSignalVerify(t *testing.T) {
	idents, _ := testIdentities(t, 8)
	body := FailSignalBody(1, 0, 0)
	fs := &FailSignal{Pair: 1, Epoch: 0, First: 0, Second: 5}
	fs.Sig1 = sign(t, idents[0], body)
	fs.Sig2 = signSecond(t, idents[5], body, fs.Sig1)

	if err := fs.Verify(idents[3], 0, 5); err != nil {
		t.Errorf("Verify(valid fail-signal): %v", err)
	}
	// Reversed signatory order is also legal (either member may emit).
	fs2 := &FailSignal{Pair: 1, Epoch: 0, First: 5, Second: 0}
	body2 := FailSignalBody(1, 0, 5)
	fs2.Sig1 = sign(t, idents[5], body2)
	fs2.Sig2 = signSecond(t, idents[0], body2, fs2.Sig1)
	if err := fs2.Verify(idents[3], 0, 5); err != nil {
		t.Errorf("Verify(reversed fail-signal): %v", err)
	}
	// Signatories outside the pair are rejected even with valid sigs.
	fs3 := &FailSignal{Pair: 1, Epoch: 0, First: 2, Second: 3}
	body3 := FailSignalBody(1, 0, 2)
	fs3.Sig1 = sign(t, idents[2], body3)
	fs3.Sig2 = signSecond(t, idents[3], body3, fs3.Sig1)
	if err := fs3.Verify(idents[4], 0, 5); err == nil {
		t.Error("Verify(outsider fail-signal): want error")
	}
	// A forged second signature is rejected.
	fs4 := *fs
	fs4.enc = enc{}
	fs4.Sig2 = fs.Sig1
	if err := fs4.Verify(idents[3], 0, 5); err == nil {
		t.Error("Verify(forged sig2): want error")
	}
	// Wrong epoch: signatures no longer match the body.
	fs5 := *fs
	fs5.enc = enc{}
	fs5.Epoch = 9
	if err := fs5.Verify(idents[3], 0, 5); err == nil {
		t.Error("Verify(wrong epoch): want error")
	}
}

func TestCommitProofVerify(t *testing.T) {
	idents, _ := testIdentities(t, 8)
	batch := testBatch(t, idents, 1, 2)
	digest := batch.BodyDigest(idents[0])

	mkAck := func(from types.NodeID) crypto.Signature {
		return sign(t, idents[from], AckBody(from, SubjectBatch, batch.View, batch.FirstSeq, digest))
	}

	// Pair (0,5) counts for two; acks from 1,2,3 bring it to five.
	proof := &CommitProof{Batch: batch,
		Ackers: []types.NodeID{1, 2, 3},
		Sigs:   []crypto.Signature{mkAck(1), mkAck(2), mkAck(3)}}
	if err := proof.Verify(idents[7], 5); err != nil {
		t.Errorf("Verify(quorum 5): %v", err)
	}
	if err := proof.Verify(idents[7], 6); err == nil {
		t.Error("Verify(quorum 6 with 5 contributors): want error")
	}
	// Duplicate ackers must not inflate the count.
	dup := &CommitProof{Batch: batch,
		Ackers: []types.NodeID{1, 1, 1},
		Sigs:   []crypto.Signature{mkAck(1), mkAck(1), mkAck(1)}}
	if err := dup.Verify(idents[7], 4); err == nil {
		t.Error("Verify(duplicate ackers): want error")
	}
	// A bad ack signature invalidates the proof.
	bad := &CommitProof{Batch: batch,
		Ackers: []types.NodeID{1, 2},
		Sigs:   []crypto.Signature{mkAck(1), mkAck(1)}}
	if err := bad.Verify(idents[7], 4); err == nil {
		t.Error("Verify(wrong ack sig): want error")
	}
	// Nil proof.
	var nilProof *CommitProof
	if err := nilProof.Verify(idents[7], 1); err == nil {
		t.Error("Verify(nil proof): want error")
	}
}

func TestStartTuplesVerify(t *testing.T) {
	idents, _ := testIdentities(t, 8)
	start := &Start{Coord: 2, View: 2, StartSeq: 5, Primary: 1, Shadow: 6}
	start.Sig1 = sign(t, idents[1], start.SignedBody())
	start.Sig2 = signSecond(t, idents[6], start.SignedBody(), start.Sig1)
	digest := start.BodyDigest(idents[0])

	s4 := sign(t, idents[4], (&StartSig{From: 4, Coord: 2, View: 2, StartDigest: digest}).SignedBody())
	tuples := &StartTuples{From: 1, Coord: 2, View: 2, StartDigest: digest,
		Froms: []types.NodeID{4}, Sigs: []crypto.Signature{s4}}
	tuples.Sig = sign(t, idents[1], tuples.SignedBody())
	if err := tuples.Verify(idents[0]); err != nil {
		t.Errorf("Verify(valid tuples): %v", err)
	}
	// Tuple attributed to the wrong process fails.
	bad := &StartTuples{From: 1, Coord: 2, View: 2, StartDigest: digest,
		Froms: []types.NodeID{3}, Sigs: []crypto.Signature{s4}}
	bad.Sig = sign(t, idents[1], bad.SignedBody())
	if err := bad.Verify(idents[0]); err == nil {
		t.Error("Verify(misattributed tuple): want error")
	}
}

func TestPreparedCertVerify(t *testing.T) {
	idents, _ := testIdentities(t, 8)
	pp := &PrePrepare{View: 1, FirstSeq: 1, Primary: 0,
		Entries: []OrderEntry{{Req: ReqID{Client: types.ClientID(0), ClientSeq: 1}, ReqDigest: idents[0].Digest([]byte("r"))}}}
	pp.Sig = sign(t, idents[0], pp.SignedBody())
	digest := pp.BodyDigest(idents[0])

	mkPrep := func(from types.NodeID) crypto.Signature {
		p := &Prepare{From: from, View: 1, FirstSeq: 1, BatchDigest: digest}
		return sign(t, idents[from], p.SignedBody())
	}
	cert := &PreparedCert{PrePrepare: pp,
		Preparers: []types.NodeID{1, 2, 3, 4},
		Sigs:      []crypto.Signature{mkPrep(1), mkPrep(2), mkPrep(3), mkPrep(4)}}
	if err := cert.Verify(idents[7], 4); err != nil {
		t.Errorf("Verify(4 prepares): %v", err)
	}
	if err := cert.Verify(idents[7], 5); err == nil {
		t.Error("Verify(need 5, have 4): want error")
	}
	// Primary's own prepare does not count.
	cert2 := &PreparedCert{PrePrepare: pp,
		Preparers: []types.NodeID{0, 1},
		Sigs:      []crypto.Signature{mkPrep(0), mkPrep(1)}}
	if err := cert2.Verify(idents[7], 2); err == nil {
		t.Error("Verify(counting primary prepare): want error")
	}
}

func TestAckVerifyAndBody(t *testing.T) {
	idents, _ := testIdentities(t, 8)
	batch := testBatch(t, idents, 1, 1)
	digest := batch.BodyDigest(idents[2])
	ack := &Ack{From: 2, Kind: SubjectBatch, View: 1, FirstSeq: 1,
		SubjectDigest: digest, Subject: batch.Marshal()}
	ack.Sig = sign(t, idents[2], ack.SignedBody())
	if err := ack.VerifySig(idents[3]); err != nil {
		t.Errorf("VerifySig(valid ack): %v", err)
	}
	// The signable body must be reconstructible without the subject bytes.
	if !bytes.Equal(ack.SignedBody(), AckBody(2, SubjectBatch, 1, 1, digest)) {
		t.Error("AckBody does not reconstruct SignedBody")
	}
	// Changing any identifying field invalidates the signature.
	for _, mutate := range []func(a *Ack){
		func(a *Ack) { a.From = 3 },
		func(a *Ack) { a.View = 2 },
		func(a *Ack) { a.FirstSeq = 2 },
		func(a *Ack) { a.Kind = SubjectStart },
		func(a *Ack) { a.SubjectDigest = idents[0].Digest([]byte("no")) },
	} {
		bad := *ack
		bad.enc = enc{}
		mutate(&bad)
		if err := bad.VerifySig(idents[3]); err == nil {
			t.Error("VerifySig(mutated ack): want error")
		}
	}
}

func TestRequestDigestStability(t *testing.T) {
	idents, _ := testIdentities(t, 2)
	req := testRequest(t, idents, 1, "payload")
	d1 := req.Digest(idents[0])
	decoded := roundTrip(t, req).(*Request)
	d2 := decoded.Digest(idents[0])
	if !bytes.Equal(d1, d2) {
		t.Error("request digest changed across round trip")
	}
	// The digest must not cover the client signature.
	req2 := *req
	req2.enc = enc{}
	req2.Sig = crypto.Signature{9, 9, 9}
	if !bytes.Equal(req2.Digest(idents[0]), d1) {
		t.Error("request digest covers the signature; D(m) must be stable")
	}
}

func TestTypeString(t *testing.T) {
	if got := TOrderBatch.String(); got != "OrderBatch" {
		t.Errorf("TOrderBatch.String() = %q", got)
	}
	if got := Type(200).String(); got != "Type(200)" {
		t.Errorf("Type(200).String() = %q", got)
	}
}

func TestMirrorInnerMessage(t *testing.T) {
	idents, _ := testIdentities(t, 8)
	batch := testBatch(t, idents, 1, 1)
	m := &Mirror{Dir: MirrorSent, Peer: types.Nil, Inner: batch.Marshal()}
	got := roundTrip(t, m).(*Mirror)
	inner, err := got.InnerMessage()
	if err != nil {
		t.Fatalf("InnerMessage: %v", err)
	}
	if inner.Type() != TOrderBatch {
		t.Errorf("inner type = %v, want OrderBatch", inner.Type())
	}
	bad := &Mirror{Dir: MirrorRecv, Peer: 1, Inner: []byte{255, 1}}
	if _, err := bad.InnerMessage(); err == nil {
		t.Error("InnerMessage(garbage): want error")
	}
}
