package core

import (
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/fsp"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

// earlyAckFixture is process p2 of an SC f = 2 deployment, a member of the
// non-coordinating pair {p2, s2}, with the C1 pair's endorsed batch at
// sequence 1 and s2's identity to sign acks with.
type earlyAckFixture struct {
	process *Process
	env     *fakeEnv
	batch   *message.OrderBatch
	s2      types.NodeID
	s2Ident *crypto.Identity
}

// ack returns s2's signed ack of the subject at sequence 1 with digest.
func (fx *earlyAckFixture) ack(t *testing.T, digest []byte) *message.Ack {
	t.Helper()
	a := &message.Ack{From: fx.s2, Kind: message.SubjectBatch, View: 1, FirstSeq: 1, SubjectDigest: digest}
	if err := message.Sign(fx.s2Ident, a, &a.Sig); err != nil {
		t.Fatal(err)
	}
	return a
}

func newEarlyAckFixture(t *testing.T) *earlyAckFixture {
	t.Helper()
	topo := types.Topology{Protocol: types.SC, F: 2}
	suite, err := crypto.ByName(crypto.HMACSHA256)
	if err != nil {
		t.Fatal(err)
	}
	idents, _, err := crypto.NewDealer(suite).Issue(topo.AllProcesses())
	if err != nil {
		t.Fatal(err)
	}
	p1, s1, _, err := topo.Candidate(1)
	if err != nil {
		t.Fatal(err)
	}
	p2, s2, _, err := topo.Candidate(2)
	if err != nil {
		t.Fatal(err)
	}
	b := &message.OrderBatch{
		Coord: 1, View: 1, FirstSeq: 1,
		Entries: []message.OrderEntry{{
			Req:       message.ReqID{Client: 100, ClientSeq: 1},
			ReqDigest: idents[p1].Digest([]byte("request-one")),
		}},
		Primary: p1, Shadow: s1,
	}
	if b.Sig1, err = message.SignSingle(idents[p1], b.SignedBody()); err != nil {
		t.Fatal(err)
	}
	if b.Sig2, err = message.SignSecond(idents[s1], b.SignedBody(), b.Sig1); err != nil {
		t.Fatal(err)
	}
	p, err := New(p2, Config{
		Topo:  topo,
		Knobs: Knobs{BatchInterval: 10 * time.Millisecond, MaxBatchBytes: 1024, Delta: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Pair() == nil || p.Pair().Counterpart() != s2 {
		t.Fatalf("p2 is not paired with s2")
	}
	return &earlyAckFixture{process: p, env: &fakeEnv{Identity: idents[p2]}, batch: b, s2: s2, s2Ident: idents[s2]}
}

// TestCounterpartAckBeforeSubjectIsNotAwaited pins the order of a
// non-coordinator pair member's checks when its counterpart's ack
// outruns the subject: the ack is buffered, and once the batch arrives
// it is credited before p2 acks, so p2 does not await an ack it already
// holds — awaiting it would expire Delta later and fail-signal a correct
// counterpart.
func TestCounterpartAckBeforeSubjectIsNotAwaited(t *testing.T) {
	fx := newEarlyAckFixture(t)
	p, env := fx.process, fx.env
	p.Receive(env, fx.s2, fx.ack(t, fx.batch.BodyDigest(env)))
	p.Receive(env, fx.batch.Primary, fx.batch)
	tr := p.trackers[1]
	if tr == nil || !tr.AckSent {
		t.Fatal("p2 did not track and ack the batch")
	}
	if !tr.Credited(fx.s2) {
		t.Fatal("the counterpart's early ack was not credited")
	}
	if _, awaited := p.Pair().Met(fsp.AckKey(1, 1)); awaited {
		t.Fatal("p2 awaits an ack from s2 that it already holds")
	}
	if p.Pair().Status() != fsp.Up {
		t.Fatalf("pair status %v, want up", p.Pair().Status())
	}
}

// TestConflictingCounterpartAckBeforeSubject pins the value-domain check
// for a counterpart ack that outruns the subject: an ack of a different
// order at the same (view, seq) marks the pair permanently down as soon
// as the subject arrives, as it does when the ack comes second, instead
// of surfacing Delta later as a time-domain expiry.
func TestConflictingCounterpartAckBeforeSubject(t *testing.T) {
	fx := newEarlyAckFixture(t)
	p, env := fx.process, fx.env
	digest := fx.batch.BodyDigest(env)
	digest[0] ^= 0xff
	p.Receive(env, fx.s2, fx.ack(t, digest))
	if p.Pair().Status() != fsp.Up {
		t.Fatalf("pair status %v before the subject arrived, want up", p.Pair().Status())
	}
	p.Receive(env, fx.batch.Primary, fx.batch)
	if p.trackers[1] == nil {
		t.Fatal("p2 did not track the batch")
	}
	if p.Pair().Status() != fsp.PermanentlyDown {
		t.Fatalf("pair status %v once the subject arrived, want permanently down", p.Pair().Status())
	}
}
