package session

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/types"
)

// pair returns a handshaken sender/receiver for the 1->2 direction: the
// receiver has verified the sender's hello, so its epoch is established
// (Open rejects frames from sessions that never helloed).
func pair(t *testing.T, ringLen int) (*Sender, *Receiver) {
	t.Helper()
	cfg := &Config{Keys: crypto.NewLinkKeys([]byte("test-master")), RingLen: ringLen}
	tx, rx := cfg.NewSender(1, 2), cfg.NewReceiver(2, 1)
	if err := rx.VerifyHello(tx.Hello()); err != nil {
		t.Fatal(err)
	}
	return tx, rx
}

func TestSealOpenRoundTrip(t *testing.T) {
	tx, rx := pair(t, 0)
	for i := 0; i < 10; i++ {
		body := []byte(fmt.Sprintf("frame-%d", i))
		f := tx.Seal(body)
		if f.Seq != uint64(i+1) {
			t.Fatalf("frame %d got seq %d", i, f.Seq)
		}
		got, err := rx.Open(f.Append(nil))
		if err != nil {
			t.Fatalf("Open(%d): %v", i, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("Open(%d) = %q, want %q", i, got, body)
		}
	}
	if st := rx.Stats(); st.Duplicates != 0 || st.Gaps != 0 || st.Rejected != 0 {
		t.Errorf("clean stream produced stats %+v", st)
	}
}

func TestOpenRejectsTamper(t *testing.T) {
	tx, rx := pair(t, 0)
	wire := tx.Seal([]byte("authentic")).Append(nil)
	for _, flip := range []int{0, 5, HeaderLen + 2, len(wire) - 1} {
		w := append([]byte(nil), wire...)
		w[flip] ^= 0x01
		if _, err := rx.Open(w); err == nil {
			t.Errorf("tampered byte %d accepted", flip)
		}
	}
	// The pristine frame still verifies and delivers.
	if body, err := rx.Open(wire); err != nil || string(body) != "authentic" {
		t.Fatalf("pristine frame rejected: %q, %v", body, err)
	}
	if st := rx.Stats(); st.Rejected == 0 {
		t.Error("rejections not counted")
	}
}

func TestOpenRejectsWrongDirectionKey(t *testing.T) {
	cfg := &Config{Keys: crypto.NewLinkKeys([]byte("m"))}
	// A frame sealed for 2->1 must not verify on the 1->2 receiver, even
	// though both keys derive from the same master.
	reflected := cfg.NewSender(2, 1).Seal([]byte("reflect")).Append(nil)
	if _, err := cfg.NewReceiver(2, 1).Open(reflected); !errors.Is(err, ErrBadMAC) {
		t.Errorf("reflected frame: got %v, want ErrBadMAC", err)
	}
}

func TestOpenDropsDuplicates(t *testing.T) {
	tx, rx := pair(t, 0)
	wire := tx.Seal([]byte("once")).Append(nil)
	if body, err := rx.Open(wire); err != nil || body == nil {
		t.Fatalf("first delivery failed: %v", err)
	}
	body, err := rx.Open(wire)
	if err != nil {
		t.Fatalf("duplicate errored: %v", err)
	}
	if body != nil {
		t.Error("duplicate delivered a body")
	}
	if st := rx.Stats(); st.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", st.Duplicates)
	}
}

func TestOpenCountsGaps(t *testing.T) {
	tx, rx := pair(t, 0)
	_ = tx.Seal([]byte("lost-1"))
	_ = tx.Seal([]byte("lost-2"))
	body, err := rx.Open(tx.Seal([]byte("arrives")).Append(nil))
	if err != nil || string(body) != "arrives" {
		t.Fatalf("frame after gap not delivered: %q, %v", body, err)
	}
	if st := rx.Stats(); st.Gaps != 2 || st.Delivered != 3 {
		t.Errorf("stats %+v, want Gaps=2 Delivered=3", st)
	}
}

func TestHelloAckHandshake(t *testing.T) {
	tx, rx := pair(t, 0)
	if err := rx.VerifyHello(tx.Hello()); err != nil {
		t.Fatalf("genuine hello rejected: %v", err)
	}
	hello := tx.Hello()
	hello[2] ^= 0x01 // claim a different sender
	if err := rx.VerifyHello(hello); err == nil {
		t.Error("hello with altered sender accepted")
	}
	replay, lost, err := tx.HandleAck(rx.Ack())
	if err != nil || len(replay) != 0 || lost != 0 {
		t.Errorf("fresh-session ack: replay=%d lost=%d err=%v", len(replay), lost, err)
	}
	ack := rx.Ack()
	ack[AckLen-1] ^= 0x01
	if _, _, err := tx.HandleAck(ack); !errors.Is(err, ErrBadMAC) {
		t.Errorf("tampered ack: got %v, want ErrBadMAC", err)
	}
}

// TestResumeReplaysGap is the session-layer no-frame-loss proof: frames
// sealed but not delivered before a "disconnect" are replayed from the
// ring and delivered exactly once, in order.
func TestResumeReplaysGap(t *testing.T) {
	tx, rx := pair(t, 0)
	var wires [][]byte
	for i := 1; i <= 10; i++ {
		wires = append(wires, tx.Seal([]byte(fmt.Sprintf("f%d", i))).Append(nil))
	}
	// All ten reached the connection; only six reached the receiver.
	tx.Wrote(10)
	for _, w := range wires[:6] { // connection dies after frame 6
		if _, err := rx.Open(w); err != nil {
			t.Fatal(err)
		}
	}
	replay, lost, err := tx.HandleAck(rx.Ack())
	if err != nil || lost != 0 {
		t.Fatalf("HandleAck: lost=%d err=%v", lost, err)
	}
	if len(replay) != 4 || replay[0].Seq != 7 || replay[3].Seq != 10 {
		t.Fatalf("replay covers wrong window: %d frames starting at %d", len(replay), replay[0].Seq)
	}
	for i, f := range replay {
		body, err := rx.Open(f.Append(nil))
		if err != nil || string(body) != fmt.Sprintf("f%d", i+7) {
			t.Fatalf("replayed frame %d: %q, %v", f.Seq, body, err)
		}
	}
	if st := rx.Stats(); st.Delivered != 10 || st.Gaps != 0 || st.Duplicates != 0 {
		t.Errorf("post-resume stats %+v", st)
	}
	if st := tx.Stats(); st.Retransmitted != 4 || st.Lost != 0 {
		t.Errorf("sender stats %+v", st)
	}
}

func TestResumeRingEvictionCountsLost(t *testing.T) {
	tx, rx := pair(t, 4)
	for i := 1; i <= 10; i++ {
		f := tx.Seal([]byte{byte(i)})
		if i <= 2 {
			if _, err := rx.Open(f.Append(nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Delivered: 2. Ring holds 7..10; 3..6 are gone.
	replay, lost, err := tx.HandleAck(rx.Ack())
	if err != nil {
		t.Fatal(err)
	}
	if lost != 4 || len(replay) != 4 || replay[0].Seq != 7 {
		t.Fatalf("replay=%d lost=%d first=%d, want 4/4/7", len(replay), lost, replay[0].Seq)
	}
	if st := tx.Stats(); st.Lost != 4 {
		t.Errorf("Lost = %d, want 4", st.Lost)
	}
}

func TestParseHello(t *testing.T) {
	tx, _ := pair(t, 0)
	from, to, err := ParseHello(tx.Hello())
	if err != nil || from != types.NodeID(1) || to != types.NodeID(2) {
		t.Errorf("ParseHello = %v,%v,%v", from, to, err)
	}
	if _, _, err := ParseHello([]byte("short")); err == nil {
		t.Error("short hello parsed")
	}
	if _, _, err := ParseHello(tx.Seal(nil).Append(nil)); err == nil {
		t.Error("data frame parsed as hello")
	}
}

// TestRestartSupersedesEpoch pins the restart contract: a fresh Sender
// (a restarted process, with a later epoch and sequences starting over)
// must be able to establish a session against a Receiver still holding
// the previous incarnation's watermark.
func TestRestartSupersedesEpoch(t *testing.T) {
	cfg := &Config{Keys: crypto.NewLinkKeys([]byte("m"))}
	old := cfg.NewSender(1, 2)
	rx := cfg.NewReceiver(2, 1)
	if err := rx.VerifyHello(old.Hello()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := rx.Open(old.Seal([]byte("old")).Append(nil)); err != nil {
			t.Fatal(err)
		}
	}

	// "Restart": a brand-new sender for the same direction.
	fresh := cfg.NewSender(1, 2)
	if err := rx.VerifyHello(fresh.Hello()); err != nil {
		t.Fatalf("restarted sender's hello rejected: %v", err)
	}
	replay, lost, err := fresh.HandleAck(rx.Ack())
	if err != nil || len(replay) != 0 || lost != 0 {
		t.Fatalf("restarted sender cannot establish a session: replay=%d lost=%d err=%v", len(replay), lost, err)
	}
	// Its restarted sequence numbers must deliver, not be dropped as
	// duplicates of the old incarnation's.
	body, err := rx.Open(fresh.Seal([]byte("fresh")).Append(nil))
	if err != nil || string(body) != "fresh" {
		t.Fatalf("restarted sender's frame 1 not delivered: %q, %v", body, err)
	}
	// The superseded incarnation is now stale in both directions.
	if err := rx.VerifyHello(old.Hello()); err == nil {
		t.Error("stale-epoch hello accepted; a replayed hello could rewind the watermark")
	}
	if body, err := rx.Open(old.Seal([]byte("zombie")).Append(nil)); err == nil {
		t.Errorf("superseded incarnation's frame delivered: %q", body)
	}
}

// TestAckEpochBinding checks a sender refuses an ack produced for a
// different incarnation's session.
func TestAckEpochBinding(t *testing.T) {
	cfg := &Config{Keys: crypto.NewLinkKeys([]byte("m"))}
	old := cfg.NewSender(1, 2)
	rx := cfg.NewReceiver(2, 1)
	if err := rx.VerifyHello(old.Hello()); err != nil {
		t.Fatal(err)
	}
	staleAck := rx.Ack()
	fresh := cfg.NewSender(1, 2)
	if err := rx.VerifyHello(fresh.Hello()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fresh.HandleAck(staleAck); err == nil {
		t.Error("ack for a superseded epoch accepted")
	}
	if _, _, err := fresh.HandleAck(rx.Ack()); err != nil {
		t.Errorf("current-epoch ack rejected: %v", err)
	}
}

// TestCheckHelloStateless verifies the pre-allocation hello check agrees
// with Receiver.VerifyHello in both directions.
func TestCheckHelloStateless(t *testing.T) {
	cfg := &Config{Keys: crypto.NewLinkKeys([]byte("m"))}
	tx := cfg.NewSender(1, 2)
	hello := tx.Hello()
	if err := cfg.CheckHello(2, hello); err != nil {
		t.Fatalf("genuine hello failed the stateless check: %v", err)
	}
	if err := cfg.CheckHello(3, hello); err == nil {
		t.Error("hello for endpoint 2 passed the check at endpoint 3")
	}
	forged := append([]byte(nil), hello...)
	forged[len(forged)-1] ^= 0x01
	if err := cfg.CheckHello(2, forged); err == nil {
		t.Error("forged hello passed the stateless check")
	}
}

// TestClockRegressionAdoptsEpoch pins the recovery path for a restarted
// sender whose clock regressed (its fresh epoch is older than the one
// the receiver holds): the authenticated ack reveals the newer epoch,
// the sender adopts a successor, and the next handshake succeeds.
func TestClockRegressionAdoptsEpoch(t *testing.T) {
	cfg := &Config{Keys: crypto.NewLinkKeys([]byte("m"))}
	behind := cfg.NewSender(1, 2) // older epoch (created first)
	ahead := cfg.NewSender(1, 2)  // the epoch the receiver ends up holding
	rx := cfg.NewReceiver(2, 1)
	if err := rx.VerifyHello(ahead.Hello()); err != nil {
		t.Fatal(err)
	}
	if err := rx.VerifyHello(behind.Hello()); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("behind hello: got %v, want ErrStaleEpoch", err)
	}
	// The transport answers a stale hello with the current ack; the
	// behind sender adopts and must succeed on the retry.
	if _, _, err := behind.HandleAck(rx.Ack()); !errors.Is(err, ErrEpochBehind) {
		t.Fatalf("HandleAck on newer-epoch ack: got %v, want ErrEpochBehind", err)
	}
	if err := rx.VerifyHello(behind.Hello()); err != nil {
		t.Fatalf("post-adoption hello rejected: %v", err)
	}
	if _, _, err := behind.HandleAck(rx.Ack()); err != nil {
		t.Fatalf("post-adoption handshake failed: %v", err)
	}
	if body, err := rx.Open(behind.Seal([]byte("recovered")).Append(nil)); err != nil || string(body) != "recovered" {
		t.Fatalf("post-adoption frame not delivered: %q, %v", body, err)
	}
	// A sender that has already sealed frames (a mid-stream zombie whose
	// ID was taken over) must NOT adopt — it stays locked out.
	zombie := cfg.NewSender(3, 2)
	rxz := cfg.NewReceiver(2, 3)
	if err := rxz.VerifyHello(zombie.Hello()); err != nil {
		t.Fatal(err)
	}
	_ = zombie.Seal([]byte("streamed"))
	successor := cfg.NewSender(3, 2)
	if err := rxz.VerifyHello(successor.Hello()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := zombie.HandleAck(rxz.Ack()); errors.Is(err, ErrEpochBehind) || err == nil {
		t.Errorf("mid-stream zombie adopted the successor's epoch: %v", err)
	}
}

// TestLostCountedOnce checks repeated handshakes against the same
// watermark do not double-count unrecoverable frames.
func TestLostCountedOnce(t *testing.T) {
	tx, rx := pair(t, 4)
	for i := 1; i <= 10; i++ {
		tx.Seal([]byte{byte(i)}) // nothing delivered; ring holds 7..10
	}
	ack := rx.Ack()
	if _, lost, err := tx.HandleAck(ack); err != nil || lost != 6 {
		t.Fatalf("first handshake: lost=%d err=%v, want 6", lost, err)
	}
	// A flaky link: replay failed, reconnect, same watermark.
	if _, lost, err := tx.HandleAck(ack); err != nil || lost != 0 {
		t.Fatalf("repeat handshake: lost=%d err=%v, want 0 newly lost", lost, err)
	}
	if st := tx.Stats(); st.Lost != 6 {
		t.Errorf("total Lost = %d, want 6 (double-counted)", st.Lost)
	}
}

// TestSealOpenAllocFree pins the per-frame heap cost of the session layer
// at nothing: Open sums the expected MAC into receiver-owned scratch, Seal
// writes header and MAC into the sender's slab and retains the frame in
// the retransmission ring.
func TestSealOpenAllocFree(t *testing.T) {
	tx, rx := pair(t, 0)
	body := make([]byte, 128)
	const runs = 200
	wires := make([][]byte, 0, runs+1)
	for i := 0; i <= runs; i++ { // AllocsPerRun calls f once to warm up
		wires = append(wires, tx.Seal(body).Append(nil))
	}
	next := 0
	var err error
	if got := testing.AllocsPerRun(runs, func() { _, err = rx.Open(wires[next]); next++ }); got != 0 || err != nil {
		t.Errorf("Receiver.Open = %v allocs (err %v), want 0", got, err)
	}
	if st := rx.Stats(); st.Delivered != runs+1 || st.Rejected != 0 {
		t.Fatalf("measured frames were not delivered: %+v", st)
	}
	if got := testing.AllocsPerRun(runs, func() { tx.Seal(body) }); got != 0 {
		t.Errorf("Sender.Seal = %v allocs, want 0", got)
	}
}

// TestSealedOverheadHoldsUntilSlotReuse pins the slab's contract from both
// ends: a frame's Hdr and MAC are byte-stable while the ring still holds
// the frame — through ringLen-1 further seals and through HandleAck's
// replay of it — and the very next seal is what rewrites them.
func TestSealedOverheadHoldsUntilSlotReuse(t *testing.T) {
	const ringLen = 8
	tx, rx := pair(t, ringLen)
	first := tx.Seal([]byte("first"))
	want := first.Append(nil)
	for i := 1; i < ringLen; i++ {
		tx.Seal([]byte{byte(i)})
		if !bytes.Equal(first.Append(nil), want) {
			t.Fatalf("frame 1 changed after %d further seals (ring of %d)", i, ringLen)
		}
	}
	replay, lost, err := tx.HandleAck(rx.Ack())
	if err != nil || lost != 0 || len(replay) != ringLen || replay[0].Seq != 1 {
		t.Fatalf("HandleAck: %d frames, lost %d, err %v; want the whole ring from seq 1", len(replay), lost, err)
	}
	if !bytes.Equal(replay[0].Append(nil), want) {
		t.Error("replayed frame 1 differs from the frame as sealed")
	}
	for i, f := range replay {
		if _, err := rx.Open(f.Append(nil)); err != nil {
			t.Fatalf("replayed frame %d does not open: %v", i+1, err)
		}
	}
	tx.Seal([]byte("evicts frame 1"))
	if bytes.Equal(first.Append(nil), want) {
		t.Error("frame 1's overhead survived its slot's reuse: the slab is not what Seal writes into")
	}
}

// TestReserveOutlastsShortRing is the transport's case: it seals a whole
// writev batch before writing it, so with a ring configured shorter than
// the batch the slab must follow the reservation, not the ring — no frame
// of the batch may be rewritten by a later one.
func TestReserveOutlastsShortRing(t *testing.T) {
	const ringLen, batch = 4, 64
	tx, rx := pair(t, ringLen)
	tx.Reserve(batch)
	frames := make([]Frame, batch)
	for i := range frames {
		frames[i] = tx.Seal([]byte{byte(i)})
	}
	for i, f := range frames {
		body, err := rx.Open(f.Append(nil))
		if err != nil || len(body) != 1 || body[0] != byte(i) {
			t.Fatalf("frame %d of the batch: body %v, err %v (aliased by a later seal?)", i+1, body, err)
		}
	}
}
