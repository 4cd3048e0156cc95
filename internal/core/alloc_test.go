package core

import (
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/message"
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
	tr := NewBatchTracker(fx.batch, fx.batch.BodyDigest(env))
	ack := &message.Ack{From: fx.p1, Kind: message.SubjectBatch, View: tr.View, FirstSeq: tr.FirstSeq, SubjectDigest: tr.Digest}
	if !tr.Matches(ack) || shadow.pair == nil || ack.From != shadow.pair.Counterpart() {
		t.Fatal("fixture does not exercise the counterpart's matching ack")
	}
	if got := testing.AllocsPerRun(200, func() { shadow.crossCheckCounterpartAck(env, ack, tr) }); got != 0 {
		t.Errorf("crossCheckCounterpartAck = %v allocs, want 0", got)
	}
}
