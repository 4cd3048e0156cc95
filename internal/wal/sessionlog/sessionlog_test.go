package sessionlog

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/session"
	"github.com/sof-repro/sof/internal/types"
)

func testKeys(t *testing.T) *crypto.LinkKeys {
	t.Helper()
	return crypto.NewLinkKeys(bytes.Repeat([]byte{7}, 32))
}

// TestRecoverSenderReplaysUnackedWindow is the core restart scenario: an
// incarnation seals frames that are never acknowledged, crashes, and the
// next incarnation — same journal directory — recovers epoch, sequence
// numbers and the frames themselves, and replays them on handshake.
func TestRecoverSenderReplaysUnackedWindow(t *testing.T) {
	dir := t.TempDir()
	keys := testKeys(t)
	self, peer := types.NodeID(1), types.NodeID(2)

	st1, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := &session.Config{Keys: keys, Journal: st1}
	tx1 := cfg1.NewSender(self, peer)
	var bodies [][]byte
	for i := 0; i < 5; i++ {
		body := []byte(fmt.Sprintf("payload-%d", i))
		bodies = append(bodies, body)
		tx1.Seal(body)
	}
	if err := st1.Sync(); err != nil {
		t.Fatal(err)
	}
	st1.Crash() // process dies with 5 sealed, unacknowledged frames

	st2, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if pend := st2.PendingReplay(self); len(pend) != 1 || pend[0] != peer {
		t.Fatalf("PendingReplay = %v, want [%v]", pend, peer)
	}
	cfg2 := &session.Config{Keys: keys, Journal: st2}
	tx2 := cfg2.NewSender(self, peer)
	if !tx2.NeedsReplay() {
		t.Fatal("recovered sender does not report NeedsReplay")
	}
	// The receiver (the peer, which stayed alive) still holds the old
	// incarnation's epoch and an empty watermark; its ack must trigger a
	// full replay from the recovered ring.
	rx := (&session.Config{Keys: keys}).NewReceiver(peer, self)
	if err := rx.VerifyHello(tx2.Hello()); err != nil {
		t.Fatalf("receiver rejected recovered sender's hello: %v", err)
	}
	replay, lost, err := tx2.HandleAck(rx.Ack())
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("%d frames lost across restart", lost)
	}
	if len(replay) != len(bodies) {
		t.Fatalf("replay has %d frames, want %d", len(replay), len(bodies))
	}
	for i, f := range replay {
		if f.Seq != uint64(i+1) {
			t.Fatalf("replay[%d].Seq = %d", i, f.Seq)
		}
		body, err := rx.Open(f.Append(nil))
		if err != nil {
			t.Fatalf("receiver rejected recovered frame %d: %v", i, err)
		}
		if !bytes.Equal(body, bodies[i]) {
			t.Fatalf("recovered frame %d body = %q, want %q", i, body, bodies[i])
		}
	}
	// New traffic continues the recovered sequence numbers.
	f := tx2.Seal([]byte("new"))
	if f.Seq != uint64(len(bodies)+1) {
		t.Fatalf("post-recovery Seal got seq %d, want %d", f.Seq, len(bodies)+1)
	}
}

// TestRecoverReceiverKeepsWatermark: a restarted receiver acknowledges its
// durable watermark, so a live sender replays only the gap and duplicates
// stay suppressed across the restart.
func TestRecoverReceiverKeepsWatermark(t *testing.T) {
	dir := t.TempDir()
	keys := testKeys(t)
	self, peer := types.NodeID(1), types.NodeID(2)

	// Live sender (no journal: it survives).
	tx := (&session.Config{Keys: keys}).NewSender(peer, self)

	st1, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	rx1 := (&session.Config{Keys: keys, Journal: st1}).NewReceiver(self, peer)
	if err := rx1.VerifyHello(tx.Hello()); err != nil {
		t.Fatal(err)
	}
	var frames []session.Frame
	for i := 0; i < 6; i++ {
		frames = append(frames, tx.Seal([]byte(fmt.Sprintf("f%d", i))))
	}
	// Receiver delivers the first 4, then the process dies.
	for _, f := range frames[:4] {
		if _, err := rx1.Open(f.Append(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st1.Sync(); err != nil {
		t.Fatal(err)
	}
	st1.Crash()

	st2, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rx2 := (&session.Config{Keys: keys, Journal: st2}).NewReceiver(self, peer)
	if err := rx2.VerifyHello(tx.Hello()); err != nil {
		t.Fatalf("restarted receiver rejected live sender's hello: %v", err)
	}
	replay, lost, err := tx.HandleAck(rx2.Ack())
	if err != nil {
		t.Fatal(err)
	}
	if lost != 0 {
		t.Fatalf("%d frames lost", lost)
	}
	// Only the 2 undelivered frames replay: the durable watermark told
	// the sender where the dead incarnation really was.
	if len(replay) != 2 {
		t.Fatalf("replay has %d frames, want 2", len(replay))
	}
	for i, f := range replay {
		body, err := rx2.Open(f.Append(nil))
		if err != nil {
			t.Fatal(err)
		}
		if body == nil {
			t.Fatalf("replayed frame %d treated as duplicate", i)
		}
	}
	// A replayed duplicate of an already-delivered frame is still dropped.
	if body, err := rx2.Open(frames[0].Append(nil)); err != nil || body != nil {
		t.Fatalf("duplicate across restart not suppressed: body=%v err=%v", body, err)
	}
}

// TestAckPrunesJournal: acknowledged frames stop pinning segments — after
// the watermark passes them, whole segments are unlinked and a checkpoint
// preserves the direction state.
func TestAckPrunesJournal(t *testing.T) {
	dir := t.TempDir()
	keys := testKeys(t)
	self, peer := types.NodeID(1), types.NodeID(2)
	st, err := Open(Options{Dir: dir, SyncInterval: -1, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	cfg := &session.Config{Keys: keys, Journal: st}
	tx := cfg.NewSender(self, peer)
	rx := (&session.Config{Keys: keys}).NewReceiver(peer, self)
	if err := rx.VerifyHello(tx.Hello()); err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("z"), 100)
	for i := 0; i < 40; i++ {
		f := tx.Seal(body)
		if _, err := rx.Open(f.Append(nil)); err != nil {
			t.Fatal(err)
		}
	}
	// The peer acknowledges everything via a reconnect handshake.
	if err := rx.VerifyHello(tx.Hello()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tx.HandleAck(rx.Ack()); err != nil {
		t.Fatal(err)
	}
	ls, cps := st.Stats()
	if ls.PrunedSegments == 0 {
		t.Fatalf("no segments pruned after full acknowledgement: %+v", ls)
	}
	if cps == 0 {
		t.Fatal("no checkpoint written before pruning")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: watermark state survived the pruning via the checkpoint.
	st2, err := Open(Options{Dir: dir, SyncInterval: -1, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sst, ok := st2.RecoverSender(self, peer)
	if !ok {
		t.Fatal("sender state lost after pruning")
	}
	if sst.NextSeq != 40 {
		t.Fatalf("recovered NextSeq = %d, want 40", sst.NextSeq)
	}
	if len(sst.Unacked) != 0 {
		t.Fatalf("recovered %d unacked frames, want 0 (all acknowledged)", len(sst.Unacked))
	}
	if pend := st2.PendingReplay(self); len(pend) != 0 {
		t.Fatalf("PendingReplay = %v after full acknowledgement", pend)
	}
}

// TestRecoveredSenderSurvivesPeerWatermarkRegression: a recovered sender
// whose peer acks BELOW the recovered acknowledgement floor (the peer
// lost its own watermark) must replay only the frames it actually holds,
// counting the forgotten prefix as lost — never emitting empty ring
// slots as zero-value frames, which would wedge the link.
func TestRecoveredSenderSurvivesPeerWatermarkRegression(t *testing.T) {
	dir := t.TempDir()
	keys := testKeys(t)
	self, peer := types.NodeID(5), types.NodeID(6)

	st1, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := &session.Config{Keys: keys, Journal: st1}
	tx1 := cfg1.NewSender(self, peer)
	for i := 0; i < 8; i++ {
		tx1.Seal([]byte(fmt.Sprintf("w%d", i)))
	}
	// The peer acknowledges 5 of the 8; the journal forgets frames 1..5.
	st1.Acked(self, peer, epochOf(t, st1, self, peer), 5)
	if err := st1.Sync(); err != nil {
		t.Fatal(err)
	}
	st1.Crash()

	st2, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cfg2 := &session.Config{Keys: keys, Journal: st2}
	tx2 := cfg2.NewSender(self, peer)
	// A FRESH receiver (the peer also lost its state): acks delivered=0,
	// below the recovered floor of 5.
	rx := (&session.Config{Keys: keys}).NewReceiver(peer, self)
	if err := rx.VerifyHello(tx2.Hello()); err != nil {
		t.Fatal(err)
	}
	replay, lost, err := tx2.HandleAck(rx.Ack())
	if err != nil {
		t.Fatal(err)
	}
	if lost != 5 {
		t.Errorf("lost = %d, want the 5 forgotten frames", lost)
	}
	if len(replay) != 3 {
		t.Fatalf("replay has %d frames, want the 3 recovered ones", len(replay))
	}
	for i, f := range replay {
		if f.Seq != uint64(6+i) {
			t.Fatalf("replay[%d].Seq = %d, want %d", i, f.Seq, 6+i)
		}
		if f.WireLen() <= session.Overhead {
			t.Fatalf("replay[%d] is a zero-value frame (wire len %d)", i, f.WireLen())
		}
		if _, err := rx.Open(f.Append(nil)); err != nil {
			t.Fatalf("receiver rejected replayed frame %d: %v", i, err)
		}
	}
}

// epochOf reads back the recovered sender epoch for a direction (test
// helper: Acked records need the live epoch).
func epochOf(t *testing.T, st *Store, self, peer types.NodeID) uint64 {
	t.Helper()
	sst, ok := st.RecoverSender(self, peer)
	if !ok {
		t.Fatal("no sender state for epoch lookup")
	}
	return sst.Epoch
}

// TestCrashLosesOnlyUnsyncedFrames pins the group-commit contract at this
// layer: frames sealed after the last sync die with the process.
func TestCrashLosesOnlyUnsyncedFrames(t *testing.T) {
	dir := t.TempDir()
	keys := testKeys(t)
	self, peer := types.NodeID(3), types.NodeID(4)
	st, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	tx := (&session.Config{Keys: keys, Journal: st}).NewSender(self, peer)
	tx.Seal([]byte("durable"))
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	tx.Seal([]byte("volatile"))
	st.Crash()

	st2, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sst, ok := st2.RecoverSender(self, peer)
	if !ok {
		t.Fatal("no recovered sender state")
	}
	if len(sst.Unacked) != 1 || !bytes.Equal(sst.Unacked[0].Body, []byte("durable")) {
		t.Fatalf("recovered window = %d frames, want just the synced one", len(sst.Unacked))
	}
	if sst.NextSeq != 1 {
		t.Fatalf("recovered NextSeq = %d, want 1", sst.NextSeq)
	}
}

// TestJournalWindowWrapsRing: a direction's unacknowledged window is a ring
// of RingLen frames. Sealing past it evicts from the head, a reopened store
// replays exactly the last RingLen frames in sequence order, and an
// acknowledgement inside the window trims it from the head.
func TestJournalWindowWrapsRing(t *testing.T) {
	dir := t.TempDir()
	keys := testKeys(t)
	self, peer := types.NodeID(1), types.NodeID(2)
	const ring, sealed = 8, 27

	st, err := Open(Options{Dir: dir, SyncInterval: -1, RingLen: ring})
	if err != nil {
		t.Fatal(err)
	}
	tx := (&session.Config{Keys: keys, Journal: st, RingLen: ring}).NewSender(self, peer)
	var bodies [][]byte
	for i := 1; i <= sealed; i++ {
		body := []byte(fmt.Sprintf("frame-%02d", i))
		bodies = append(bodies, body)
		tx.Seal(body)
	}
	window := func(st *Store) []uint64 {
		sr := st.senders[dirKey{self, peer}]
		var seqs []uint64
		for i := 0; i < sr.n; i++ {
			seqs = append(seqs, sr.at(i).seq)
		}
		return seqs
	}
	if got := window(st); len(got) != ring || got[0] != sealed-ring+1 || got[ring-1] != sealed {
		t.Fatalf("window after %d seals = %v, want seqs %d..%d", sealed, got, sealed-ring+1, sealed)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	st.Crash()

	st2, err := Open(Options{Dir: dir, SyncInterval: -1, RingLen: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sst, ok := st2.RecoverSender(self, peer)
	if !ok {
		t.Fatal("no recovered sender state")
	}
	if len(sst.Unacked) != ring {
		t.Fatalf("recovered %d unacked frames, want %d", len(sst.Unacked), ring)
	}
	for i, f := range sst.Unacked {
		seq := uint64(sealed - ring + 1 + i)
		if f.Seq != seq || !bytes.Equal(f.Body, bodies[seq-1]) {
			t.Fatalf("recovered frame %d = seq %d %q, want seq %d %q", i, f.Seq, f.Body, seq, bodies[seq-1])
		}
	}
	st2.Acked(self, peer, sst.Epoch, 23)
	if got := window(st2); len(got) != 4 || got[0] != 24 || got[3] != sealed {
		t.Fatalf("window after an ack of 23 = %v, want seqs 24..%d", got, sealed)
	}
}

// TestSealedFrameAllocFree: once a direction's window is full, journalling
// a sealed frame evicts the oldest one without a heap object.
func TestSealedFrameAllocFree(t *testing.T) {
	st, err := Open(Options{Dir: t.TempDir(), SyncInterval: -1, RingLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	self, peer := types.NodeID(1), types.NodeID(2)
	f := (&session.Config{Keys: testKeys(t)}).NewSender(self, peer).Seal(bytes.Repeat([]byte("b"), 128))
	seal := func() {
		f.Seq++
		st.SealedFrame(self, peer, f)
	}
	for i := 0; i < 16; i++ {
		seal()
	}
	if n := testing.AllocsPerRun(1000, seal); n != 0 {
		t.Fatalf("SealedFrame allocates %v objects per frame with a full window, want 0", n)
	}
}
