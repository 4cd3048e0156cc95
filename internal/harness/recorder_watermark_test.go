package harness

import (
	"testing"

	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

func reqID(i int) message.ReqID {
	return message.ReqID{Client: types.ClientID(0), ClientSeq: uint64(i)}
}

// TestPruneCommittedBelowWatermark: with bounded retention the committed
// index is truncated below the ring's watermark, its oldest retained
// position, as each commit event leaves the ring, so it holds exactly the
// requests whose first commit the ring still holds, however many requests
// flow through.
func TestPruneCommittedBelowWatermark(t *testing.T) {
	const retain = 4
	r := NewRecorder(true, retain)
	for i := 1; i <= 200; i++ {
		r.OnCommit(commitAt(i))
		if n, want := r.CommittedIndexSize(), min(i, retain); n != want {
			t.Fatalf("after %d commits the index holds %d requests, want %d", i, n, want)
		}
	}
	for i := 1; i <= 200; i++ {
		if got, want := r.Committed(reqID(i)), i > 200-retain; got != want {
			t.Errorf("Committed(%d) = %v, want %v (ring holds %d..200)", i, got, want, 200-retain+1)
		}
	}
}

// TestPruneNoOpWhenUnbounded checks the compatibility contract: without a
// retention bound the index is never truncated, so Committed answers
// exactly for all history.
func TestPruneNoOpWhenUnbounded(t *testing.T) {
	r := NewRecorder(true, 0)
	for i := 1; i <= 50; i++ {
		r.OnCommit(commitAt(i))
	}
	if n := r.CommittedIndexSize(); n != 50 {
		t.Fatalf("index size = %d, want 50", n)
	}
	if !r.Committed(reqID(1)) {
		t.Fatal("oldest request lost from unbounded index")
	}
}

// TestPruneRecommittedEntryKeepsNewPosition: only the event that first
// committed a request takes it out of the index. A request committed
// again after that event left the ring is indexed at its new position,
// and evicting an older event that also holds it — another process's
// copy, first commit of another request — leaves that entry alone.
func TestPruneRecommittedEntryKeepsNewPosition(t *testing.T) {
	r := NewRecorder(true, 4)
	both := commitAt(7)
	both.Entries = append(both.Entries, message.OrderEntry{Req: reqID(1)})
	r.OnCommit(commitAt(1)) // position 0: request 1's first commit
	r.OnCommit(both)        // position 1: request 7's first, request 1 again
	r.OnCommit(commitAt(2))
	r.OnCommit(commitAt(3))
	r.OnCommit(commitAt(1)) // position 4 evicts position 0 and re-indexes request 1
	if !r.Committed(reqID(1)) {
		t.Fatal("re-committed request not re-indexed")
	}
	r.OnCommit(commitAt(4)) // evicts position 1
	if r.Committed(reqID(7)) {
		t.Fatal("request 7 kept after the event that first committed it left the ring")
	}
	if !r.Committed(reqID(1)) {
		t.Fatal("fresh index entry removed by an older commit's eviction")
	}
	if n := r.CommittedIndexSize(); n != 4 {
		t.Fatalf("index holds %d requests, want 4 (2, 3, 1, 4)", n)
	}
}

// TestCommittedIndexUnboundedWithoutRing: a recorder that keeps no commit
// events has no ring to evict from, so its index keeps every request.
func TestCommittedIndexUnboundedWithoutRing(t *testing.T) {
	r := NewRecorder(false, 4)
	for i := 1; i <= 50; i++ {
		r.OnCommit(commitAt(i))
	}
	if n := r.CommittedIndexSize(); n != 50 {
		t.Fatalf("index size = %d, want 50", n)
	}
	if events, _, _ := r.CommitsSince(0); len(events) != 0 {
		t.Fatalf("recorder without KeepCommits retained %d events", len(events))
	}
}
