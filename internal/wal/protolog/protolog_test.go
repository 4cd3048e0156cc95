package protolog

import (
	"reflect"
	"testing"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/types"
)

// openTest opens a store with background sync disabled so the durability
// point is exactly where the test places it.
func openTest(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func cp(wm types.Seq) core.CheckpointState {
	return core.CheckpointState{
		View:          3,
		Rank:          2,
		DeliveredUpTo: wm,
		NextSeq:       wm + 5,
		OrderDigest:   []byte{1, 2, 3, 4},
		PairEpochs:    map[types.Rank]uint64{1: 7, 2: 0},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	if _, ok := s.Load(); ok {
		t.Fatal("empty store claims a checkpoint")
	}
	want := cp(42)
	s.Save(want)
	got, ok := s.Load()
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Load = %+v ok=%v, want %+v", got, ok, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the last checkpoint wins and is reported durable.
	s2 := openTest(t, dir)
	defer s2.Close()
	got, ok = s2.Load()
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered = %+v ok=%v, want %+v", got, ok, want)
	}
	if d := s2.DurableWatermark(); d != 42 {
		t.Fatalf("recovered durable watermark = %d, want 42", d)
	}
}

func TestLatestCheckpointWinsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	for wm := types.Seq(10); wm <= 50; wm += 10 {
		s.Save(cp(wm))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir)
	defer s2.Close()
	got, ok := s2.Load()
	if !ok || got.DeliveredUpTo != 50 {
		t.Fatalf("recovered watermark %d ok=%v, want 50", got.DeliveredUpTo, ok)
	}
}

// TestDurableWatermarkLagsUnsyncedSaves pins the announce-safety property:
// Save reports only fsynced checkpoints, so a crash can never lose a
// watermark the process already announced to pruning peers.
func TestDurableWatermarkLagsUnsyncedSaves(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	if d := s.Save(cp(10)); d != 0 {
		t.Fatalf("unsynced save reported durable watermark %d, want 0", d)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := s.Save(cp(20)); d != 10 {
		t.Fatalf("after sync of first save, durable = %d, want 10", d)
	}
	// A crash now loses the unsynced checkpoint 20 but keeps 10.
	s.Crash()
	s2 := openTest(t, dir)
	defer s2.Close()
	got, ok := s2.Load()
	if !ok || got.DeliveredUpTo != 10 {
		t.Fatalf("post-crash recovery = %d ok=%v, want the durable 10", got.DeliveredUpTo, ok)
	}
}

// TestCrashAfterRotationKeepsDurableCheckpoint pins the prune-safety
// rule: saving a new checkpoint must never delete the segment holding
// the newest DURABLE one, even when the save rotates into a fresh
// segment — a crash before the new record's group commit must still
// recover the durable checkpoint (whose watermark was already announced
// to pruning peers).
func TestCrashAfterRotationKeepsDurableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SyncInterval: -1, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	s.Save(cp(10))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// The tiny segment bound forces this save into a fresh segment; the
	// record stays unsynced in the user-space buffer.
	s.Save(cp(20))
	s.Crash()

	s2 := openTest(t, dir)
	defer s2.Close()
	got, ok := s2.Load()
	if !ok {
		t.Fatal("crash after rotation lost every checkpoint; the durable one must survive")
	}
	if got.DeliveredUpTo != 10 {
		t.Fatalf("recovered watermark %d, want the durable 10", got.DeliveredUpTo)
	}
}

func TestOldCheckpointSegmentsPruned(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SyncInterval: -1, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	big := cp(1)
	big.OrderDigest = make([]byte, 100) // force frequent rotation
	for wm := types.Seq(1); wm <= 64; wm++ {
		big.DeliveredUpTo = wm
		s.Save(big)
		// Pruning stays behind the newest durable checkpoint, and with no
		// background flusher only a group commit makes one durable: a
		// rotation hands its segment to the next commit.
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.PrunedSegments == 0 {
		t.Fatal("no segments pruned despite 64 superseded checkpoints over tiny segments")
	}
	if st.Segments > 2 {
		t.Fatalf("store retains %d segments; superseded checkpoints should be pruned", st.Segments)
	}
	got, ok := s.Load()
	if !ok || got.DeliveredUpTo != 64 {
		t.Fatalf("latest checkpoint %d ok=%v, want 64", got.DeliveredUpTo, ok)
	}
}

func TestCheckpointRecordRoundTrip(t *testing.T) {
	want := cp(99)
	rec := encodeCheckpoint(nil, want)
	got, err := decodeCheckpoint(rec)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	// Nil-field state survives too.
	empty := core.CheckpointState{View: 1, Rank: 1}
	got, err = decodeCheckpoint(encodeCheckpoint(nil, empty))
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if !reflect.DeepEqual(got, empty) {
		t.Fatalf("empty round trip: got %+v want %+v", got, empty)
	}
}

// FuzzCheckpointRecord feeds arbitrary bytes to the record decoder: it
// must reject or accept without panicking, and anything it accepts must
// re-encode to a record it accepts again (no lossy parse).
func FuzzCheckpointRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{kCheckpoint})
	f.Add(encodeCheckpoint(nil, cp(7)))
	f.Add(encodeCheckpoint(nil, core.CheckpointState{}))
	f.Fuzz(func(t *testing.T, rec []byte) {
		got, err := decodeCheckpoint(rec)
		if err != nil {
			return
		}
		re := encodeCheckpoint(nil, got)
		got2, err := decodeCheckpoint(re)
		if err != nil {
			t.Fatalf("re-decode of accepted record failed: %v", err)
		}
		if got.DeliveredUpTo != got2.DeliveredUpTo || got.View != got2.View ||
			got.Rank != got2.Rank || got.NextSeq != got2.NextSeq {
			t.Fatalf("lossy parse: %+v vs %+v", got, got2)
		}
	})
}

func TestProposalJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	if _, ok := s.ProposalFloor(); ok {
		t.Fatal("empty store claims a proposal floor")
	}
	for next := types.Seq(2); next <= 9; next++ {
		s.JournalProposal(next)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: replay recovers the highest journalled counter.
	s2 := openTest(t, dir)
	defer s2.Close()
	floor, ok := s2.ProposalFloor()
	if !ok || floor != 9 {
		t.Fatalf("recovered proposal floor = %d ok=%v, want 9", floor, ok)
	}
}

// TestCrashDropsUnsyncedProposals pins the group-commit semantics: a
// crash loses proposal records after the last durability point, so the
// recovered floor is the last synced counter (the pair-assisted catch-up
// refines it upward; the floor only has to never overstate durability).
func TestCrashDropsUnsyncedProposals(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.JournalProposal(5)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.JournalProposal(6)
	s.JournalProposal(7)
	s.Crash()

	s2 := openTest(t, dir)
	defer s2.Close()
	floor, ok := s2.ProposalFloor()
	if !ok || floor != 5 {
		t.Fatalf("post-crash proposal floor = %d ok=%v, want 5 (last synced)", floor, ok)
	}
}

// TestProposalsInterleaveWithCheckpoints pins that the two record kinds
// share one log without confusing each other: checkpoint recovery and
// the proposal floor are both correct after an interleaved history, and
// proposal records never advance the durable checkpoint watermark.
func TestProposalsInterleaveWithCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.JournalProposal(11)
	s.Save(cp(10))
	s.JournalProposal(14)
	s.Save(cp(12))
	s.JournalProposal(17)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := s.DurableWatermark(); d != 12 {
		t.Fatalf("durable watermark = %d, want 12 (proposal records must not move it)", d)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir)
	defer s2.Close()
	got, ok := s2.Load()
	if !ok || got.DeliveredUpTo != 12 {
		t.Fatalf("recovered checkpoint watermark %d ok=%v, want 12", got.DeliveredUpTo, ok)
	}
	floor, ok := s2.ProposalFloor()
	if !ok || floor != 17 {
		t.Fatalf("recovered proposal floor = %d ok=%v, want 17", floor, ok)
	}
}
