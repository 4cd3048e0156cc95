package runtime

import (
	"testing"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

// TestEngineSignAllocationFloors pins what a message signed on an engine's
// loop costs the heap: a share of its kind's 8 KB wire arena, not a buffer
// of its own — at most 1/16 of an object per Request, Ack, proposal or
// endorsement over 1,000 builds. A signer without arenas pays one object
// per message (TestSignedMessageOneAlloc in message).
func TestEngineSignAllocationFloors(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation floors do not hold under the race detector")
	}
	const builds = 1000
	idents := identities(t, crypto.NewHMACSuite(), 1)
	e := &engine{}
	e.attach(0, idents[0], nil, nil, t.Logf)
	req := &message.Request{Client: types.ClientID(0), ClientSeq: 1, Payload: make([]byte, 128)}
	ack := &message.Ack{From: 0, Kind: message.SubjectBatch, View: 1, FirstSeq: 1, SubjectDigest: make([]byte, 32)}
	batch := func() *message.OrderBatch {
		b := message.NewOrderBatch(1)
		b.Coord, b.View, b.FirstSeq, b.Primary, b.Shadow = 1, 1, 1, 0, 1
		b.Entries[0] = message.OrderEntry{Req: req.ID(), ReqDigest: make([]byte, 32)}
		return b
	}
	proposal, endorsement := batch(), batch()
	if err := message.Sign(e, endorsement, &endorsement.Sig1); err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func() error{
		"Request": func() error { return message.Sign(e, req, &req.Sig) },
		"Ack":     func() error { return message.Sign(e, ack, &ack.Sig) },
		// The first and the second signatory's arena of a double-signed kind.
		"OrderBatch proposal": func() error { return message.Sign(e, proposal, &proposal.Sig1) },
		"OrderBatch endorsement": func() error {
			return message.Countersign(e, endorsement, endorsement.Sig1, &endorsement.Sig2)
		},
	} {
		var err error
		got := testing.AllocsPerRun(5, func() {
			for range builds {
				if berr := build(); berr != nil {
					err = berr
				}
			}
		})
		if perBuild := got / builds; perBuild > 1.0/16 || err != nil {
			t.Errorf("%s: %v allocs per engine-built message (err %v), want <= 1/16: a share of the wire arena",
				name, perBuild, err)
		}
	}
}
