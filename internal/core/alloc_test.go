package core

import (
	"bytes"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/fsp"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/types"
)

// TestCounterpartAckCheckAllocFree pins pair monitoring on the fault-free
// ack path: a paired process cross-checks every ack of its counterpart,
// and with no expectation live and no conflict that lookup must not reach
// the heap (it used to format a string key per ack).
func TestCounterpartAckCheckAllocFree(t *testing.T) {
	fx := newEvidenceFixture(t)
	shadow, err := New(fx.s1, Config{
		Topo:          fx.topo,
		BatchInterval: 10 * time.Millisecond,
		MaxBatchBytes: 1024,
		Delta:         time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	env := &fakeEnv{Identity: fx.idents[fx.s1]}
	tr := NewBatchTracker(new(message.Slab[Tracker]), fx.batch, fx.batch.BodyDigest(env))
	ack := &message.Ack{From: fx.p1, Kind: message.SubjectBatch, View: tr.View, FirstSeq: tr.FirstSeq, SubjectDigest: tr.Digest}
	if !tr.Matches(ack) || shadow.pair == nil || ack.From != shadow.pair.Counterpart() {
		t.Fatal("fixture does not exercise the counterpart's matching ack")
	}
	if got := testing.AllocsPerRun(200, func() { shadow.crossCheckCounterpartAck(env, ack, tr) }); got != 0 {
		t.Errorf("crossCheckCounterpartAck = %v allocs, want 0", got)
	}
}

// TestTrackerAllocationFloors pins what tracking one subject costs: a share
// of one slab — the tracker, its credits and the digest it keeps, which it
// copies out of the caller's (scratch) bytes, are one slab element —
// however many acks are credited in a deployment that fits the inline
// credits, one object more once a larger one spills; and that the map-free
// tracker still treats duplicates and the pair's own acks as no-ops and
// counts through mayCount as before.
func TestTrackerAllocationFloors(t *testing.T) {
	fx := newEvidenceFixture(t)
	digest := fx.batch.BodyDigest(fx.env)
	n := fx.topo.N()
	sig := crypto.Signature("an ack signature")
	all := fx.topo.AllProcesses()
	if n > inlineCreditCap {
		t.Fatalf("the fixture's %d processes do not fit the %d inline credits", n, inlineCreditCap)
	}
	slab := new(message.Slab[Tracker])
	var tr *Tracker
	if got := testing.AllocsPerRun(50, func() {
		for range trackersPerSlab {
			tr = NewBatchTracker(slab, fx.batch, digest)
			for _, id := range all {
				tr.Credit(id, sig)
				tr.Credit(id, sig)
			}
		}
	}); got > 1 {
		t.Errorf("%d new trackers and %d credits each = %v allocs, want <= 1 (a slab)", trackersPerSlab, n, got)
	}
	scratch := bytes.Clone(digest)
	kept := NewBatchTracker(slab, fx.batch, scratch)
	clear(scratch)
	if !bytes.Equal(kept.Digest, digest) {
		t.Error("the tracker's digest aliases the caller's bytes")
	}
	// A larger deployment (f = 2: the pair and five ackers): the credits
	// spill to a slice of their own once and keep every supporter.
	const ackers = 5
	var big *Tracker
	if got := testing.AllocsPerRun(200, func() {
		big = NewBatchTracker(slab, fx.batch, digest)
		for id := types.NodeID(100); id < 100+ackers; id++ {
			big.Credit(id, sig)
		}
	}); got > 1 {
		t.Errorf("a tracker spilling its inline credits = %v allocs, want <= 1 (the spill and a slab share)", got)
	}
	if got := big.Count(nil); got != 2+ackers {
		t.Errorf("a spilled tracker counts %d supporters, want %d", got, 2+ackers)
	}
	if p := big.Proof(); len(p.Ackers) != ackers || p.Ackers[0] != 100 || p.Ackers[ackers-1] != 100+ackers-1 {
		t.Errorf("a spilled tracker's proof lost its ackers: %v", p.Ackers)
	}
	if got := tr.Count(nil); got != n {
		t.Errorf("Count(nil) = %d after crediting all %d processes twice, want %d", got, n, n)
	}
	if got := len(tr.Proof().Ackers); got != n-2 {
		t.Errorf("proof holds %d ackers, want %d: the pair is credited by its order, not by its acks", got, n-2)
	}
	notP2 := func(id types.NodeID) bool { return id != fx.p2 }
	notS1 := func(id types.NodeID) bool { return id != fx.s1 }
	if a, b := tr.Count(notP2), tr.Count(notS1); a != n-1 || b != n-1 {
		t.Errorf("Count excluding an acker = %d, excluding a pair member = %d, want %d for both", a, b, n-1)
	}
	unpaired := *fx.batch
	unpaired.Shadow = types.Nil
	if got := NewBatchTracker(slab, &unpaired, digest).Count(nil); got != 1 {
		t.Errorf("a fresh unpaired batch counts %d contributors, want 1", got)
	}
}

// TestProofBuiltOnDemandAfterLateAcks takes a batch through quorum on a
// real process, lets a late ack trickle in, and only then asks for the
// proof, as a CatchUp answer does: it must be the evidence that made the
// quorum — late acks do not grow it — and must pass the same checks a
// requester applies, at the message layer and through the process.
func TestProofBuiltOnDemandAfterLateAcks(t *testing.T) {
	fx := newEvidenceFixture(t)
	p, env := fx.process, fx.env
	p.Init(env)
	if p.lastCommitted.Proof() != nil {
		t.Fatal("a process that committed nothing offers a proof")
	}
	ackFrom := func(from types.NodeID) *message.Ack {
		a := &message.Ack{From: from, Kind: message.SubjectBatch, View: fx.batch.View,
			FirstSeq: fx.batch.FirstSeq, SubjectDigest: fx.batch.BodyDigest(env)}
		sig, err := message.SignSingle(fx.idents[from], a.SignedBody())
		if err != nil {
			t.Fatal(err)
		}
		a.Sig = sig
		return a
	}
	p.view, p.rank, p.installed = fx.batch.View, fx.batch.Coord, true
	p.acceptEndorsedBatch(env, fx.p1, fx.batch)
	tr := p.trackers[fx.batch.FirstSeq]
	if tr == nil || tr.Committed {
		t.Fatalf("tracker after the endorsed batch: %+v", tr)
	}
	p.onAck(env, fx.p3, ackFrom(fx.p3)) // its own ack: pair + p3 = quorum 3
	if !tr.Committed || p.lastCommitted != tr {
		t.Fatal("the batch did not commit at quorum")
	}
	p.onAck(env, fx.p2, ackFrom(fx.p2)) // late
	if got := tr.Count(nil); got != 4 {
		t.Fatalf("late ack not credited: %d contributors", got)
	}

	proof := p.buildCatchUp(env, fx.p2, 0).MaxCommitted
	if proof == nil || proof.Batch != fx.batch {
		t.Fatalf("CatchUp carries proof %+v", proof)
	}
	if len(proof.Ackers) != 1 || proof.Ackers[0] != fx.p3 {
		t.Errorf("proof ackers = %v, want [%v]: what stood at commit", proof.Ackers, fx.p3)
	}
	if err := proof.Verify(env, fx.topo.Quorum()); err != nil {
		t.Errorf("CommitProof.Verify: %v", err)
	}
	if err := p.verifyCommittedEvidence(env, proof, []*message.OrderBatch{fx.batch}, nil); err != nil {
		t.Errorf("verifyCommittedEvidence: %v", err)
	}
	if again := p.lastCommitted.Proof(); again == proof {
		t.Error("Proof handed out the same object twice: it is kept, not built on demand")
	}
}

// TestPairMetMarginAllocFree covers the margin instrument on the path that
// feeds it: discharging a live expectation on a registry-wired process
// observes sof_pair_check_margin_seconds and allocates nothing; a key
// nobody awaited observes nothing.
func TestPairMetMarginAllocFree(t *testing.T) {
	fx := newEvidenceFixture(t)
	reg := obs.NewRegistry()
	shadow, err := New(fx.s1, Config{
		Topo:          fx.topo,
		BatchInterval: 10 * time.Millisecond,
		MaxBatchBytes: 1024,
		Delta:         time.Second,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	env := &fakeEnv{Identity: fx.idents[fx.s1]}
	seq := types.Seq(0)
	round := func() {
		seq++
		shadow.pair.Expect(env, fsp.EndorseKey(seq), 0)
		shadow.pairMet(env, fsp.EndorseKey(seq))
		shadow.pairMet(env, fsp.EndorseKey(seq)) // no longer awaited
	}
	round()
	const runs = 200
	if got := testing.AllocsPerRun(runs, round); got != 0 {
		t.Errorf("Expect + pairMet = %v allocs, want 0", got)
	}
	snap := shadow.m.pairMargin.Snapshot()
	if want := uint64(runs + 2); snap.Count != want {
		t.Errorf("margin observed %d times, want %d (once per awaited output)", snap.Count, want)
	}
	// fakeEnv's clock stands still, so every margin is the whole Delta.
	if got := snap.Sum / float64(snap.Count); got != 1 {
		t.Errorf("mean margin = %vs, want Delta = 1s", got)
	}
	// Re-registering a series returns the one already there.
	if reg.Histogram("sof_pair_check_margin_seconds", "", nil) != shadow.m.pairMargin {
		t.Error("the margin histogram is not registered as sof_pair_check_margin_seconds")
	}
}

// TestPoolOpsAllocFree pins the request pool's heap cost on the request
// path, in both dequeue disciplines: admitting a request, marking it
// ordered out of band, reviving it, looking it up and popping a batch cost
// nothing beyond the amortised growth of the slab and its index — the
// batch is a slice the pool reuses (a fresh one per batch cost one object,
// and grown entry by entry four for these eight).
func TestPoolOpsAllocFree(t *testing.T) {
	const (
		runs     = 200
		perBatch = 8
	)
	for _, fair := range []bool{false, true} {
		p := NewRequestPool()
		p.SetBatchTarget(1<<20, EntryOverhead+32, func() {})
		if fair {
			p.SetFair(1 << 20)
		}
		reqs := make([]*message.Request, (runs+1)*perBatch)
		for i := range reqs {
			reqs[i] = &message.Request{Client: types.ClientID(i % 2), ClientSeq: uint64(i), Payload: make([]byte, 128)}
		}
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			for _, r := range reqs[next : next+perBatch] {
				p.Add(r)
			}
			id := reqs[next].ID()
			p.MarkOrdered(id)
			p.UnmarkOrdered(id)
			if _, ok := p.Get(id); !ok || p.IsOrdered(id) {
				t.Fatal("revived request lost")
			}
			if n := len(p.NextBatch(1<<20, 32)); n != perBatch {
				t.Fatalf("batch of %d, want %d", n, perBatch)
			}
			next += perBatch
		})
		if got != 0 {
			t.Errorf("fair=%v: %d adds, a mark/unmark and one batch = %v allocs, want 0", fair, perBatch, got)
		}
	}
}

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops a share of what is put back, so pooled paths allocate at random.
var raceEnabled bool

// trackersPerSlab is the length of a message.Slab of Trackers: as many as
// fit its 8 KB.
const trackersPerSlab = 8 << 10 / int(unsafe.Sizeof(Tracker{}))

// scratchEnv is fakeEnv with the digest and signature scratch a runtime
// Env owns, so what a measurement counts is the protocol's own objects.
type scratchEnv struct {
	fakeEnv
	digest, sig []byte
}

func (e *scratchEnv) ScratchDigest(b []byte) []byte {
	e.digest = e.AppendDigest(e.digest[:0], b)
	return e.digest
}

func (e *scratchEnv) ScratchSign(d []byte) (crypto.Signature, error) {
	var err error
	e.sig, err = e.AppendSign(e.sig[:0], d)
	return e.sig, err
}

// TestCloseBatchAllocationFloors pins what proposing a batch costs the
// heap: its block (the struct with its entries inline), the block its
// entries' digests share and its signed buffer — three objects, with
// NextBatch's slice the pool's own. And what acking one costs: the ack's
// signed buffer and a share of the process's ack slab.
func TestCloseBatchAllocationFloors(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation floors do not hold under the race detector")
	}
	const (
		runs     = 100
		perBatch = 5
	)
	fx := newEvidenceFixture(t)
	// The unpaired candidate C(f+1) proposes by multicast: no proposal to
	// keep for a shadow and no pair expectation to arm.
	p, err := New(fx.p2, Config{Topo: fx.topo, BatchInterval: time.Second, MaxBatchBytes: 1024, Delta: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	env := &scratchEnv{fakeEnv: fakeEnv{Identity: fx.idents[fx.p2]}}
	p.Init(env)
	p.rank = 2
	for i := range (runs + 1) * perBatch {
		r := &message.Request{Client: types.ClientID(i % 2), ClientSeq: uint64(i), Payload: make([]byte, 128)}
		r.SignedBody()
		p.pool.Add(r)
	}
	got := testing.AllocsPerRun(runs, func() {
		first := p.nextSeq
		if !p.closeBatch(env, true) || p.nextSeq != first+perBatch {
			t.Fatalf("closeBatch proposed seqs %d..%d, want a batch of %d", first, p.nextSeq-1, perBatch)
		}
		delete(p.inflight, first) // committed, as releaseInflight would
	})
	if got > 3 {
		t.Errorf("closeBatch = %v allocs, want <= 3 (block, digests, signed buffer)", got)
	}

	acker := fx.process
	aenv := &scratchEnv{fakeEnv: *fx.env}
	acker.Init(aenv)
	trackers := make([]*Tracker, runs+1)
	for i := range trackers {
		trackers[i] = NewBatchTracker(new(message.Slab[Tracker]), fx.batch, fx.batch.BodyDigest(aenv))
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() { acker.sendAck(aenv, trackers[next]); next++ }); got > 1 {
		t.Errorf("sendAck = %v allocs, want <= 1 (the signed buffer and a slab share)", got)
	}
}

// captureEnv hands every message multicast through it to out.
type captureEnv struct {
	scratchEnv
	out chan<- message.Message
}

func (e *captureEnv) Multicast(_ []types.NodeID, m message.Message) { e.out <- m }

// TestProcessSlabsSurviveTurnover pins the slab rule on a process's own
// slabs: trackers and acks held while the process carves three more slabs
// of each are re-read by another goroutine all the while, and never change
// — a slab that rewrote a handed-out element races here (run under -race).
func TestProcessSlabsSurviveTurnover(t *testing.T) {
	fx := newEvidenceFixture(t)
	p := fx.process
	held := make(chan message.Message, 1<<12)
	env := &captureEnv{scratchEnv: scratchEnv{fakeEnv: *fx.env}, out: held}
	p.Init(env)
	acksPerSlab := 8 << 10 / int(unsafe.Sizeof(message.Ack{}))
	n := 3*acksPerSlab + acksPerSlab/2 // trackers are the larger struct: more turnovers still
	batches := make([]*message.OrderBatch, n)
	for i := range batches {
		b := *fx.batch
		b.FirstSeq = types.Seq(i + 1)
		batches[i] = &b
	}
	trackers := make(chan *Tracker, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ts []*Tracker
		var acks []*message.Ack
		intact := func() bool {
			for i, tr := range ts {
				if tr.FirstSeq != types.Seq(i+1) || tr.Batch != batches[i] || tr.Count(nil) != 3 || !tr.AckSent {
					return false
				}
			}
			for i, a := range acks {
				if a.FirstSeq != types.Seq(i+1) || a.From != fx.p3 || !bytes.Equal(a.SubjectDigest, ts[i].Digest) {
					return false
				}
			}
			return true
		}
		for tr := range trackers {
			ts = append(ts, tr)
			acks = append(acks, (<-held).(*message.Ack))
			if !intact() {
				t.Errorf("a tracker or ack changed after %d more were carved", len(ts))
				return
			}
		}
	}()
	for _, b := range batches {
		tr := NewBatchTracker(&p.trackerSlab, b, env.ScratchDigest(b.SignedBody()))
		tr.Credit(fx.p3, crypto.Signature("an ack signature"))
		p.sendAck(env, tr)
		trackers <- tr
	}
	close(trackers)
	wg.Wait()
}
