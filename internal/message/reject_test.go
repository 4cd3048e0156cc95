package message

import (
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/types"
)

func TestRejectedRoundTripAndVerify(t *testing.T) {
	idents, _ := testIdentities(t, 8)
	m := &Rejected{
		From: 3, Client: types.ClientID(2), ClientSeq: 41,
		Code: 2, RetryAfter: 750 * time.Millisecond,
	}
	m.Sig = sign(t, idents[3], m.SignedBody())

	got := roundTrip(t, m).(*Rejected)
	if got.From != 3 || got.Client != types.ClientID(2) || got.ClientSeq != 41 ||
		got.Code != 2 || got.RetryAfter != 750*time.Millisecond {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if err := got.VerifySig(idents[7]); err != nil {
		t.Fatalf("VerifySig: %v", err)
	}
	// Every rejection field is signed: tampering must not verify.
	forged := []*Rejected{
		{From: 3, Client: types.ClientID(2), ClientSeq: 42, Code: 2, RetryAfter: m.RetryAfter, Sig: m.Sig},
		{From: 3, Client: types.ClientID(2), ClientSeq: 41, Code: 1, RetryAfter: m.RetryAfter, Sig: m.Sig},
		{From: 3, Client: types.ClientID(2), ClientSeq: 41, Code: 2, RetryAfter: time.Hour, Sig: m.Sig},
		{From: 3, Client: types.ClientID(3), ClientSeq: 41, Code: 2, RetryAfter: m.RetryAfter, Sig: m.Sig},
	}
	for i, f := range forged {
		if err := f.VerifySig(idents[7]); err == nil {
			t.Fatalf("forged Rejected %d accepted", i)
		}
	}
	// A negative hint never reaches the wire.
	neg := &Rejected{From: 1, Client: types.ClientID(0), ClientSeq: 1, RetryAfter: -time.Second}
	dec, err := Decode(neg.Marshal())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if dec.(*Rejected).RetryAfter != 0 {
		t.Fatalf("negative RetryAfter round-tripped as %v, want 0", dec.(*Rejected).RetryAfter)
	}
}
