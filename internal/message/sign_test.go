package message

import (
	"bytes"
	"strings"
	"testing"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// scratchSigner is a signer with an event loop's scratch, as the runtime
// Envs are: digests and signatures land in storage it owns and are valid
// until the next of their kind.
type scratchSigner struct {
	*crypto.Identity
	digest, sig []byte
}

func (s *scratchSigner) ScratchDigest(data []byte) []byte {
	s.digest = s.AppendDigest(s.digest[:0], data)
	return s.digest
}

func (s *scratchSigner) ScratchSign(digest []byte) (crypto.Signature, error) {
	var err error
	s.sig, err = s.AppendSign(s.sig[:0], digest)
	return s.sig, err
}

// sigSlots names the signature fields a signatory fills: first for a
// single-signed kind, first then second for a double-signed one.
func sigSlots(m Message) (first, second *crypto.Signature) {
	switch m := m.(type) {
	case *Request:
		return &m.Sig, nil
	case *OrderBatch:
		return &m.Sig1, &m.Sig2
	case *Ack:
		return &m.Sig, nil
	case *FailSignal:
		return &m.Sig1, &m.Sig2
	case *BackLog:
		return &m.Sig, nil
	case *Start:
		return &m.Sig1, &m.Sig2
	case *StartSig:
		return &m.Sig, nil
	case *StartTuples:
		return &m.Sig, nil
	case *PrePrepare:
		return &m.Sig, nil
	case *Prepare:
		return &m.Sig, nil
	case *Commit:
		return &m.Sig, nil
	case *BFTViewChange:
		return &m.Sig, nil
	case *BFTNewView:
		return &m.Sig, nil
	case *Unwilling:
		return &m.Sig, nil
	case *Reply:
		return &m.Sig, nil
	case *PairBeat:
		return &m.Sig, nil
	case *CatchUpReq:
		return &m.Sig, nil
	case *CatchUp:
		return &m.Sig, nil
	case *FetchReq:
		return &m.Sig, nil
	case *Rejected:
		return &m.Sig, nil
	}
	return nil, nil
}

// within reports whether sub is a sub-slice of buf's backing array.
func within(sub, buf []byte) bool {
	if len(sub) == 0 {
		return true
	}
	for i := range buf {
		if &buf[i] == &sub[0] {
			return len(sub) <= len(buf)-i
		}
	}
	return false
}

// checkOneBuffer asserts the shape Sign leaves: body, wire and the filled
// signature field are one allocation.
func checkOneBuffer(t *testing.T, m Signed, slot *crypto.Signature) {
	t.Helper()
	wire, body := m.Marshal(), m.SignedBody()
	if len(body) == 0 || &body[0] != &wire[0] {
		t.Errorf("%v: the signed body is not the prefix of the wire encoding", m.Type())
	}
	if len(*slot) == 0 || !within(*slot, wire) {
		t.Errorf("%v: the signature field does not point into Marshal()'s backing array", m.Type())
	}
}

// TestSignMatchesHandAssembly walks the kind table: for every signed kind,
// Sign (and, for the double-signed ones, Countersign and Endorse) yields
// the bytes that SignSingle/SignSecond, a field assignment and Marshal
// yield, in one buffer — a buffer of its own, or a share of the signer's
// wire arena. Wire and MAC bytes are a journal contract; who owns
// them is not.
func TestSignMatchesHandAssembly(t *testing.T) {
	idents, _ := testIdentities(t, 8)
	for name, signers := range map[string][2]Signer{
		"own buffer": {&scratchSigner{Identity: idents[1]}, &scratchSigner{Identity: idents[2]}},
		"arena":      {newArenaSigner(idents[1]), newArenaSigner(idents[2])},
	} {
		t.Run(name, func(t *testing.T) { signMatchesHandAssembly(t, idents, signers[0], signers[1]) })
	}
}

func signMatchesHandAssembly(t *testing.T, idents map[types.NodeID]*crypto.Identity, signer, second Signer) {
	for typ := TRequest; typ <= TRejected; typ++ {
		built, isSigned := samples()[typ].(Signed)
		if !isSigned {
			if typ != TPairStart && typ != TMirror {
				t.Errorf("%v has no signable body", typ)
			}
			continue
		}
		byHand := samples()[typ].(Signed)
		slot1, slot2 := sigSlots(built)
		hand1, hand2 := sigSlots(byHand)
		if slot1 == nil {
			t.Errorf("%v is a signed kind this test knows no signature field of", typ)
			continue
		}
		*slot1, *hand1 = nil, nil
		if slot2 != nil {
			*slot2, *hand2 = nil, nil
		}

		*hand1 = sign(t, idents[1], byHand.SignedBody())
		if err := Sign(signer, built, slot1); err != nil {
			t.Fatalf("Sign(%v): %v", typ, err)
		}
		if !bytes.Equal(built.Marshal(), byHand.Marshal()) || !bytes.Equal(*slot1, *hand1) ||
			!bytes.Equal(built.SignedBody(), byHand.SignedBody()) {
			t.Errorf("%v: Sign and SignSingle + assignment + Marshal disagree:\n built %x\n hand  %x", typ, built.Marshal(), byHand.Marshal())
		}
		checkOneBuffer(t, built, slot1)
		if slot2 == nil {
			continue
		}

		// The second signatory works on what it received: the 1-signed
		// message, decoded.
		received, err := Decode(built.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		counter := received.(Signed)
		c1, c2 := sigSlots(counter)
		*hand2 = signSecond(t, idents[2], byHand.SignedBody(), *hand1)
		*byHand.encoding() = enc{} // the hand-assembled copy: its tail changed, encode again
		if err := Countersign(second, counter, *c1, c2); err != nil {
			t.Fatalf("Countersign(%v): %v", typ, err)
		}
		if !bytes.Equal(counter.Marshal(), byHand.Marshal()) || !bytes.Equal(*c2, *hand2) {
			t.Errorf("%v: Countersign and SignSecond + assignment + Marshal disagree:\n built %x\n hand  %x", typ, counter.Marshal(), byHand.Marshal())
		}
		checkOneBuffer(t, counter, c2)

		var endorsed Signed
		switch m := built.(type) {
		case *OrderBatch:
			e := new(OrderBatch)
			if err := m.EndorseInto(second, e); err != nil {
				t.Fatal(err)
			}
			endorsed, c2 = e, &e.Sig2
		case *Start:
			e, err := m.Endorse(second)
			if err != nil {
				t.Fatal(err)
			}
			endorsed, c2 = e, &e.Sig2
		default:
			continue
		}
		if !bytes.Equal(endorsed.Marshal(), byHand.Marshal()) {
			t.Errorf("%v: Endorse differs from a copy with Sig2 assigned:\n built %x\n hand  %x", typ, endorsed.Marshal(), byHand.Marshal())
		}
		checkOneBuffer(t, endorsed, c2)
		if len(*slot2) != 0 || within(endorsed.Marshal(), built.Marshal()) {
			t.Errorf("%v: Endorse wrote into the 1-signed original", typ)
		}
	}
}

// TestSignScratchDoesNotReachFinishedMessages signs two messages back to
// back with one signer: the second signature is produced in the scratch the
// first was, and must not show through the first message — its bytes were
// copied out before the scratch was reused.
func TestSignScratchDoesNotReachFinishedMessages(t *testing.T) {
	idents, _ := testIdentities(t, 4)
	signer := &scratchSigner{Identity: idents[types.ClientID(0)]}
	a := &Request{Client: types.ClientID(0), ClientSeq: 1, Payload: []byte("first")}
	b := &Request{Client: types.ClientID(0), ClientSeq: 2, Payload: []byte("second")}
	if err := Sign(signer, a, &a.Sig); err != nil {
		t.Fatal(err)
	}
	sigA, wireA := bytes.Clone(a.Sig), bytes.Clone(a.Marshal())
	if err := Sign(signer, b, &b.Sig); err != nil {
		t.Fatal(err)
	}
	if within(a.Sig, signer.sig) || within(b.Sig, signer.sig) {
		t.Fatal("a finished message's signature aliases the signer's scratch")
	}
	if !bytes.Equal(a.Sig, sigA) || !bytes.Equal(a.Marshal(), wireA) || bytes.Equal(a.Sig, b.Sig) {
		t.Error("signing a second message changed the first")
	}
	for _, r := range []*Request{a, b} {
		if err := VerifySingle(idents[1], r.Client, r.SignedBody(), r.Sig); err != nil {
			t.Errorf("request %d: %v", r.ClientSeq, err)
		}
		if got, err := Decode(r.Marshal()); err != nil || !bytes.Equal(got.(*Request).Sig, r.Sig) {
			t.Errorf("request %d does not round-trip: %v", r.ClientSeq, err)
		}
	}
}

// TestSignRefusesAForeignSlot: a slot that is not a signature field of the
// message's layout is a caller's bug; it is reported, and the message is
// left as it was.
func TestSignRefusesAForeignSlot(t *testing.T) {
	idents, _ := testIdentities(t, 2)
	req := &Request{Client: types.ClientID(0), ClientSeq: 1, Payload: []byte("p")}
	var elsewhere crypto.Signature
	err := Sign(idents[types.ClientID(0)], req, &elsewhere)
	if err == nil || !strings.Contains(err.Error(), "Request") {
		t.Fatalf("Sign into a foreign slot: %v", err)
	}
	if elsewhere != nil || req.Sig != nil || req.wire != nil || req.body != nil {
		t.Error("a refused Sign left something behind")
	}
}

// TestSignedMessageOneAlloc pins what a built message costs the heap when
// its signer owns no wire arenas (a bare crypto.Identity, bench's layer
// drive): its one buffer. Body clone, MAC and wire clone (what SignSingle,
// an assignment and Marshal cost) read 3 here; an endorsement adds the
// copied struct it returns. With arenas (the runtime Envs) the buffer is a
// share of a chunk: TestEngineSignAllocationFloors in runtime.
func TestSignedMessageOneAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation floors do not hold under the race detector")
	}
	const runs = 100
	idents, _ := testIdentities(t, 8)
	signer := &scratchSigner{Identity: idents[1]}
	entries := []OrderEntry{{Req: ReqID{Client: types.ClientID(0), ClientSeq: 1}, ReqDigest: fixedSig(0xD1)}}
	for name, c := range map[string]struct {
		fresh func() Signed
		sign  func(Signed) error
		want  float64
	}{
		"Request": {
			func() Signed { return &Request{Client: types.ClientID(0), ClientSeq: 1, Payload: make([]byte, 128)} },
			func(m Signed) error { return Sign(signer, m, &m.(*Request).Sig) }, 1},
		"OrderBatch": {
			func() Signed {
				return &OrderBatch{Coord: 1, View: 1, FirstSeq: 1, Entries: entries, Primary: 1, Shadow: 5}
			},
			func(m Signed) error { return Sign(signer, m, &m.(*OrderBatch).Sig1) }, 1},
		"Ack": {
			func() Signed {
				return &Ack{From: 1, Kind: SubjectBatch, View: 1, FirstSeq: 1, SubjectDigest: fixedSig(0xD1)}
			},
			func(m Signed) error { return Sign(signer, m, &m.(*Ack).Sig) }, 1},
		"Endorse": {
			func() Signed {
				return &OrderBatch{Coord: 1, View: 1, FirstSeq: 1, Entries: entries, Primary: 0, Shadow: 1, Sig1: fixedSig(1)}
			},
			func(m Signed) error { return m.(*OrderBatch).EndorseInto(signer, new(OrderBatch)) }, 2},
	} {
		// Built outside the measured function, as in TestAllocationFloors:
		// a message lives on the heap in every real caller.
		msgs := make([]Signed, runs+1)
		for i := range msgs {
			msgs[i] = c.fresh()
		}
		next := 0
		var err error
		if got := testing.AllocsPerRun(runs, func() { err = c.sign(msgs[next]); next++ }); got != c.want || err != nil {
			t.Errorf("%s: signing a fresh message = %v allocs (err %v), want %v", name, got, err, c.want)
		}
	}
}
