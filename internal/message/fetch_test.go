package message

import (
	"testing"
)

func TestFetchReqRoundTripAndVerify(t *testing.T) {
	idents, _ := testIdentities(t, 8)
	m := &FetchReq{
		From: 4,
		Reqs: []ReqID{{Client: 100, ClientSeq: 7}, {Client: 101, ClientSeq: 1}},
	}
	m.Sig = sign(t, idents[4], m.SignedBody())

	got := roundTrip(t, m).(*FetchReq)
	if got.From != 4 || len(got.Reqs) != 2 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.Reqs[0] != (ReqID{Client: 100, ClientSeq: 7}) || got.Reqs[1] != (ReqID{Client: 101, ClientSeq: 1}) {
		t.Fatalf("round trip corrupted items: %+v", got)
	}
	if err := got.VerifySig(idents[7]); err != nil {
		t.Fatalf("VerifySig: %v", err)
	}
	// A tampered request list must not verify.
	forged := &FetchReq{From: 4, Reqs: append([]ReqID(nil), got.Reqs...), Sig: m.Sig}
	forged.Reqs[0].ClientSeq = 99
	if err := forged.VerifySig(idents[7]); err == nil {
		t.Fatal("forged FetchReq accepted")
	}
}

// TestCatchUpPairResumeRoundTrip pins the pair-assisted resume field: a
// responder's exact next-expected proposal sequence survives the wire.
func TestCatchUpPairResumeRoundTrip(t *testing.T) {
	idents, _ := testIdentities(t, 8)
	m := &CatchUp{From: 2, Base: 10, UpTo: 7, PairNextPropose: 23}
	m.Sig = sign(t, idents[2], m.SignedBody())
	got := roundTrip(t, m).(*CatchUp)
	if got.PairNextPropose != 23 {
		t.Fatalf("PairNextPropose = %d after round trip, want 23", got.PairNextPropose)
	}
	if err := got.VerifySig(idents[7]); err != nil {
		t.Fatalf("VerifySig: %v", err)
	}
	// The resume hint is signed: tampering with it must not verify.
	forged := &CatchUp{From: 2, Base: 10, UpTo: 7, PairNextPropose: 24, Sig: m.Sig}
	if err := forged.VerifySig(idents[7]); err == nil {
		t.Fatal("forged PairNextPropose accepted")
	}
}
