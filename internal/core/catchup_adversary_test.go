package core

// Adversarial tests for the catch-up evidence clamps, driven by the same
// message shapes the harness's catch-up liar mutator produces: forged
// commit proofs, 1-signed equivocation twins, inflated UpTo claims with no
// substantiating evidence, and out-of-range pair-resume answers. The
// clamps under test are verifyCommittedEvidence (nothing unverifiable is
// adopted), credibleUpTo (bare watermark claims count for nothing) and
// applyPairResume (the proposal counters never step on committed history
// and the shadow's expectation never moves backwards).

import (
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// fakeEnv satisfies runtime.Env for reactor-free unit tests: crypto is
// real (one dealer-issued identity), transmission and timers are no-ops.
type fakeEnv struct {
	*crypto.Identity
}

func (e *fakeEnv) Now() time.Time                                 { return time.Time{} }
func (e *fakeEnv) Send(types.NodeID, message.Message)             {}
func (e *fakeEnv) Multicast([]types.NodeID, message.Message)      {}
func (e *fakeEnv) SetTimer(time.Duration, func()) runtime.Timer   { return noTimer{} }
func (e *fakeEnv) Charge(time.Duration)                           {}
func (e *fakeEnv) ScratchDigest(b []byte) []byte                  { return e.Digest(b) }
func (e *fakeEnv) ScratchSign(d []byte) (crypto.Signature, error) { return e.Sign(d) }
func (e *fakeEnv) Logf(string, ...any)                            {}

type noTimer struct{}

func (noTimer) Stop() bool { return false }

// evidenceFixture is an SC f=1 deployment's worth of identities plus one
// honestly pair-signed batch and its commit proof at quorum.
type evidenceFixture struct {
	topo    types.Topology
	idents  map[types.NodeID]*crypto.Identity
	p1, s1  types.NodeID
	p2, p3  types.NodeID
	batch   *message.OrderBatch
	proof   *message.CommitProof
	process *Process
	env     *fakeEnv
}

func newEvidenceFixture(t *testing.T) *evidenceFixture {
	t.Helper()
	topo := types.Topology{Protocol: types.SC, F: 1}
	suite, err := crypto.ByName(crypto.HMACSHA256)
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	idents, _, err := crypto.NewDealer(suite).Issue(topo.AllProcesses())
	if err != nil {
		t.Fatalf("issuing identities: %v", err)
	}
	fx := &evidenceFixture{topo: topo, idents: idents}
	fx.p1 = mustReplica(t, topo, 1)
	fx.p2 = mustReplica(t, topo, 2)
	fx.p3 = mustReplica(t, topo, 3)
	s1, err := topo.ShadowID(1)
	if err != nil {
		t.Fatalf("shadow id: %v", err)
	}
	fx.s1 = s1

	fx.batch = fx.signedBatch(t, 1, []byte("request-one"))
	fx.proof = fx.proofFor(t, fx.batch, []types.NodeID{fx.p3})

	// The verifying process is an uninvolved replica; only its quorum
	// arithmetic matters here.
	fx.process, err = New(fx.p3, Config{
		Topo:          topo,
		BatchInterval: 10 * time.Millisecond,
		MaxBatchBytes: 1024,
		Delta:         time.Second,
	})
	if err != nil {
		t.Fatalf("building process: %v", err)
	}
	fx.env = &fakeEnv{Identity: idents[fx.p3]}
	return fx
}

func mustReplica(t *testing.T, topo types.Topology, i int) types.NodeID {
	t.Helper()
	id, err := topo.ReplicaID(i)
	if err != nil {
		t.Fatalf("replica %d: %v", i, err)
	}
	return id
}

// signedBatch builds a batch at firstSeq honestly double-signed by the
// C1 pair.
func (fx *evidenceFixture) signedBatch(t *testing.T, firstSeq types.Seq, payload []byte) *message.OrderBatch {
	t.Helper()
	b := &message.OrderBatch{
		Coord:    1,
		View:     1,
		FirstSeq: firstSeq,
		Entries: []message.OrderEntry{{
			Req:       message.ReqID{Client: 100, ClientSeq: uint64(firstSeq)},
			ReqDigest: fx.idents[fx.p1].Digest(payload),
		}},
		Primary: fx.p1,
		Shadow:  fx.s1,
	}
	sig1, err := message.SignSingle(fx.idents[fx.p1], b.SignedBody())
	if err != nil {
		t.Fatalf("sig1: %v", err)
	}
	b.Sig1 = sig1
	sig2, err := message.SignSecond(fx.idents[fx.s1], b.SignedBody(), sig1)
	if err != nil {
		t.Fatalf("sig2: %v", err)
	}
	b.Sig2 = sig2
	return b
}

// proofFor builds a commit proof for b with ack signatures from ackers
// (contributors = primary + shadow + ackers).
func (fx *evidenceFixture) proofFor(t *testing.T, b *message.OrderBatch, ackers []types.NodeID) *message.CommitProof {
	t.Helper()
	digest := b.BodyDigest(fx.idents[fx.p1])
	proof := &message.CommitProof{Batch: b, Ackers: ackers}
	for _, from := range ackers {
		sig, err := message.SignSingle(fx.idents[from],
			message.AckBody(from, message.SubjectBatch, b.View, b.FirstSeq, digest))
		if err != nil {
			t.Fatalf("ack sig from %v: %v", from, err)
		}
		proof.Sigs = append(proof.Sigs, sig)
	}
	return proof
}

// forgedTwin is the equivocator/liar shape: same header and signatures,
// different request assignment. The signatures no longer cover the body.
func forgedTwin(b *message.OrderBatch) *message.OrderBatch {
	entries := make([]message.OrderEntry, len(b.Entries))
	copy(entries, b.Entries)
	dig := append([]byte(nil), entries[0].ReqDigest...)
	dig[0] ^= 0xff
	entries[0].ReqDigest = dig
	return &message.OrderBatch{
		Coord:    b.Coord,
		View:     b.View,
		FirstSeq: b.FirstSeq,
		Entries:  entries,
		Primary:  b.Primary,
		Shadow:   b.Shadow,
		Sig1:     b.Sig1,
		Sig2:     b.Sig2,
	}
}

func TestVerifyCommittedEvidenceAdversarial(t *testing.T) {
	fx := newEvidenceFixture(t)
	p, env := fx.process, fx.env

	oneSigned := fx.signedBatch(t, 1, []byte("request-one"))
	oneSigned.Sig2 = nil // the 1-signed equivocation twin shape

	tamperedSig := fx.signedBatch(t, 1, []byte("request-one"))
	tamperedSig.Sig1 = append(append(crypto.Signature(nil), tamperedSig.Sig1...), 0x01)

	thinProof := fx.proofFor(t, fx.batch, nil) // primary+shadow only: 2 < quorum 3

	wrongAcker := fx.proofFor(t, fx.batch, []types.NodeID{fx.p3})
	wrongAcker.Ackers[0] = fx.p2 // p3's signature attributed to p2

	cases := []struct {
		name    string
		proof   *message.CommitProof
		batches []*message.OrderBatch
		starts  []*message.Start
		wantErr bool
	}{
		{name: "honest proof and batch", proof: fx.proof, batches: []*message.OrderBatch{fx.batch}},
		{name: "no evidence at all"},
		{name: "forged batch body under real signatures",
			batches: []*message.OrderBatch{forgedTwin(fx.batch)}, wantErr: true},
		{name: "1-signed twin where a pair endorsement is required",
			batches: []*message.OrderBatch{oneSigned}, wantErr: true},
		{name: "tampered primary signature",
			batches: []*message.OrderBatch{tamperedSig}, wantErr: true},
		{name: "proof below quorum", proof: thinProof, wantErr: true},
		{name: "proof ack signature attributed to the wrong process",
			proof: wrongAcker, wantErr: true},
		{name: "proof carrying a forged batch",
			proof:   &message.CommitProof{Batch: forgedTwin(fx.batch), Ackers: fx.proof.Ackers, Sigs: fx.proof.Sigs},
			wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := p.verifyCommittedEvidence(env, tc.proof, tc.batches, tc.starts)
			if tc.wantErr && err == nil {
				t.Fatalf("forged evidence accepted")
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("honest evidence rejected: %v", err)
			}
		})
	}
}

func TestCredibleUpToIgnoresNakedClaims(t *testing.T) {
	fx := newEvidenceFixture(t)

	const inflation types.Seq = 1 << 40
	cases := []struct {
		name string
		m    *message.CatchUp
		want types.Seq
	}{
		{name: "naked inflated claim", m: &message.CatchUp{UpTo: inflation}, want: 0},
		{name: "claim backed by proof",
			m:    &message.CatchUp{UpTo: inflation, MaxCommitted: fx.proof},
			want: fx.batch.LastSeq()},
		{name: "claim backed by carried batch",
			m:    &message.CatchUp{UpTo: inflation, Batches: []*message.OrderBatch{fx.batch}},
			want: fx.batch.LastSeq()},
		{name: "start beyond the proof wins",
			m: &message.CatchUp{
				UpTo:         inflation,
				MaxCommitted: fx.proof,
				Starts:       []*message.Start{{StartSeq: fx.batch.LastSeq() + 3}},
			},
			want: fx.batch.LastSeq() + 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := credibleUpTo(tc.m); got != tc.want {
				t.Fatalf("credibleUpTo = %d, want %d", got, tc.want)
			}
		})
	}
}

// pairProcess builds the C1 primary or shadow for pair-resume tests.
func pairProcess(t *testing.T, shadow bool) *Process {
	t.Helper()
	topo := types.Topology{Protocol: types.SC, F: 1}
	id := mustReplica(t, topo, 1)
	if shadow {
		s, err := topo.ShadowID(1)
		if err != nil {
			t.Fatalf("shadow id: %v", err)
		}
		id = s
	}
	p, err := New(id, Config{
		Topo:          topo,
		BatchInterval: 10 * time.Millisecond,
		MaxBatchBytes: 1024,
		Delta:         time.Second,
	})
	if err != nil {
		t.Fatalf("building process: %v", err)
	}
	return p
}

func TestApplyPairResumeClamps(t *testing.T) {
	const inflation types.Seq = 1 << 40
	cases := []struct {
		name          string
		shadow        bool
		delivered     types.Seq
		next          types.Seq // nextSeq (primary) / shadowNextPropose (shadow)
		resume        types.Seq
		proposedSince bool
		want          types.Seq
	}{
		{name: "primary adopts the counterpart's answer exactly",
			delivered: 4, next: 9, resume: 6, want: 6},
		{name: "primary adopts downward (journal over-approximation)",
			delivered: 2, next: 20, resume: 3, want: 3},
		{name: "resume below committed history is clamped",
			delivered: 10, next: 12, resume: 4, want: 11},
		{name: "late answer after the first post-restart proposal is stale",
			delivered: 4, next: 9, resume: 6, proposedSince: true, want: 9},
		{name: "inflated resume never rewinds behind delivery",
			delivered: 7, next: 8, resume: inflation, want: inflation},
		{name: "zero resume is no answer",
			delivered: 4, next: 9, resume: 0, want: 9},
		{name: "shadow only raises its expectation",
			shadow: true, delivered: 4, next: 9, resume: 6, want: 9},
		{name: "shadow raises to a higher answer",
			shadow: true, delivered: 4, next: 9, resume: 15, want: 15},
		{name: "shadow clamp still applies below delivery",
			shadow: true, delivered: 20, next: 5, resume: 3, want: 21},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := pairProcess(t, tc.shadow)
			p.deliveredUpTo = tc.delivered
			p.proposedSince = tc.proposedSince
			p.pairResume = tc.resume
			if tc.shadow {
				p.shadowNextPropose = tc.next
			} else {
				p.nextSeq = tc.next
			}
			p.applyPairResume()
			got := p.nextSeq
			if tc.shadow {
				got = p.shadowNextPropose
			}
			if got != tc.want {
				t.Fatalf("after applyPairResume: counter = %d, want %d", got, tc.want)
			}
		})
	}
}

// FuzzApplyPairResume checks the resume clamps against arbitrary liar
// answers: whatever the counterpart claims, the primary never steps on
// committed history, a primary that already proposed ignores the answer,
// and the shadow's expectation never decreases.
func FuzzApplyPairResume(f *testing.F) {
	f.Add(uint64(6), uint64(4), uint64(9), false, false)
	f.Add(uint64(1)<<40, uint64(7), uint64(8), false, true)
	f.Add(uint64(0), uint64(3), uint64(3), true, false)
	f.Fuzz(func(t *testing.T, resume, delivered, next uint64, proposedSince, shadow bool) {
		// Bound the state space to realistic magnitudes; the clamp
		// arithmetic must hold everywhere below overflow territory.
		const bound = uint64(1) << 50
		if delivered > bound || next > bound || resume > bound {
			t.Skip()
		}
		p := pairProcess(t, shadow)
		p.deliveredUpTo = types.Seq(delivered)
		p.proposedSince = proposedSince
		p.pairResume = types.Seq(resume)
		before := types.Seq(next)
		if shadow {
			p.shadowNextPropose = before
		} else {
			p.nextSeq = before
		}
		p.applyPairResume()
		switch {
		case shadow:
			if p.shadowNextPropose < before {
				t.Fatalf("shadow expectation moved backwards: %d -> %d (resume %d)",
					before, p.shadowNextPropose, resume)
			}
		case resume == 0 || proposedSince:
			if p.nextSeq != before {
				t.Fatalf("stale/absent answer moved the proposal counter: %d -> %d", before, p.nextSeq)
			}
		default:
			if p.nextSeq < p.deliveredUpTo+1 {
				t.Fatalf("proposal counter %d stepped on committed history (delivered %d, resume %d)",
					p.nextSeq, p.deliveredUpTo, resume)
			}
		}
	})
}
