package harness

import (
	"sync"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

func commitAt(i int) core.CommitEvent {
	return core.CommitEvent{
		Node: 0, View: 1, Kind: message.SubjectBatch,
		FirstSeq: types.Seq(i), LastSeq: types.Seq(i),
		Entries: []message.OrderEntry{{Req: message.ReqID{Client: types.ClientID(0), ClientSeq: uint64(i)}}},
		At:      time.Unix(0, 0).Add(time.Duration(i) * time.Millisecond),
	}
}

func TestCommitsSinceCursor(t *testing.T) {
	r := NewRecorder(true, 0)
	for i := 1; i <= 5; i++ {
		r.OnCommit(commitAt(i))
	}
	events, cur, dropped := r.CommitsSince(0)
	if len(events) != 5 || cur != 5 || dropped != 0 {
		t.Fatalf("CommitsSince(0) = %d events, cur %d, dropped %d", len(events), cur, dropped)
	}
	// Nothing new: empty delta, cursor unchanged.
	events, cur2, _ := r.CommitsSince(cur)
	if len(events) != 0 || cur2 != cur {
		t.Fatalf("empty delta: %d events, cur %d", len(events), cur2)
	}
	// New events appear after the cursor only.
	r.OnCommit(commitAt(6))
	events, cur3, _ := r.CommitsSince(cur2)
	if len(events) != 1 || events[0].FirstSeq != 6 || cur3 != 6 {
		t.Fatalf("delta after append: %+v, cur %d", events, cur3)
	}
}

// TestCommitsSinceAllocationFloors pins what a poll costs the heap: a
// share of a chunk of sinceChunk events, not a slice per poll — a
// follower recording three commits and polling them costs nothing once
// the ring is full. Each result is capacity-capped, so an append to it
// reallocates instead of writing into the next result, and is never
// rewritten: results held across later polls keep their events.
func TestCommitsSinceAllocationFloors(t *testing.T) {
	const (
		runs    = 100
		perPoll = 3
	)
	r := NewRecorder(true, 16)
	commits := make([]core.CommitEvent, 16+(runs+1)*perPoll+1)
	for i := range commits {
		commits[i] = commitAt(i)
	}
	next := 1
	for ; next <= 16; next++ {
		r.OnCommit(commits[next])
	}
	cursor := r.CommitCursor()
	held := make([][]core.CommitEvent, 0, runs+1)
	got := testing.AllocsPerRun(runs, func() {
		for range perPoll {
			r.OnCommit(commits[next])
			next++
		}
		var events []core.CommitEvent
		events, cursor, _ = r.CommitsSince(cursor)
		held = append(held, events)
	})
	if got != 0 && !raceEnabled {
		t.Errorf("recording and polling %d commits = %v allocs, want 0 (a chunk share)", perPoll, got)
	}
	for i, events := range held {
		if len(events) != perPoll || cap(events) != perPoll {
			t.Fatalf("poll %d: len %d cap %d, want both %d", i, len(events), cap(events), perPoll)
		}
		if i+1 < len(held) && &append(events, commits[0])[0] == &events[0] {
			t.Fatalf("an append to poll %d wrote into the chunk", i)
		}
		for j, ev := range events {
			if want := types.Seq(17 + i*perPoll + j); ev.FirstSeq != want {
				t.Fatalf("poll %d event %d is seq %d, want %d: a held result was rewritten", i, j, ev.FirstSeq, want)
			}
		}
	}
}

func TestCommitRingEviction(t *testing.T) {
	r := NewRecorder(true, 3)
	for i := 1; i <= 10; i++ {
		r.OnCommit(commitAt(i))
	}
	// Only the newest 3 are retained; a reader from 0 learns what it lost.
	events, cur, dropped := r.CommitsSince(0)
	if len(events) != 3 || dropped != 7 || cur != 10 {
		t.Fatalf("after eviction: %d events, dropped %d, cur %d", len(events), dropped, cur)
	}
	if events[0].FirstSeq != 8 || events[2].FirstSeq != 10 {
		t.Fatalf("retained window = %v..%v, want 8..10", events[0].FirstSeq, events[2].FirstSeq)
	}
	// A reader that kept up pays no drops.
	r.OnCommit(commitAt(11))
	events, _, dropped = r.CommitsSince(cur)
	if len(events) != 1 || dropped != 0 || events[0].FirstSeq != 11 {
		t.Fatalf("caught-up reader: %+v dropped %d", events, dropped)
	}
	// Commits() reflects only the retained ring.
	if got := len(r.Commits()); got != 3 {
		t.Fatalf("Commits() after eviction = %d, want 3", got)
	}
}

func TestCommittedIndexSurvivesEviction(t *testing.T) {
	r := NewRecorder(true, 2)
	for i := 1; i <= 50; i++ {
		r.OnCommit(commitAt(i))
	}
	// Request 1's commit event was evicted long ago; the index remembers.
	for _, seq := range []uint64{1, 25, 50} {
		id := message.ReqID{Client: types.ClientID(0), ClientSeq: seq}
		if !r.Committed(id) {
			t.Errorf("Committed(%v) = false after eviction", id)
		}
	}
	if r.Committed(message.ReqID{Client: types.ClientID(0), ClientSeq: 99}) {
		t.Error("Committed(uncommitted) = true")
	}
}

func TestCommitNotify(t *testing.T) {
	r := NewRecorder(false, 0) // notifications work without retention
	id := message.ReqID{Client: types.ClientID(0), ClientSeq: 7}
	ch := r.CommitNotify(id)
	select {
	case <-ch:
		t.Fatal("notified before commit")
	default:
	}
	r.OnCommit(commitAt(7))
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("no notification after commit")
	}
	// Already-committed requests get an immediately-closed channel.
	select {
	case <-r.CommitNotify(id):
	default:
		t.Fatal("CommitNotify(committed) not closed")
	}
}

func TestCancelNotifyRemovesWaiter(t *testing.T) {
	r := NewRecorder(false, 0)
	id := message.ReqID{Client: types.ClientID(0), ClientSeq: 8}
	ch1 := r.CommitNotify(id)
	ch2 := r.CommitNotify(id)
	r.CancelNotify(id, ch1)
	r.mu.Lock()
	remaining := len(r.waiters[id])
	r.mu.Unlock()
	if remaining != 1 {
		t.Fatalf("waiters after cancel = %d, want 1", remaining)
	}
	r.OnCommit(commitAt(8))
	select {
	case <-ch2:
	case <-time.After(time.Second):
		t.Fatal("surviving waiter not notified")
	}
	select {
	case <-ch1:
		t.Fatal("canceled waiter was notified")
	default:
	}
	r.mu.Lock()
	leaked := len(r.waiters)
	r.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("waiters map not empty after commit: %d", leaked)
	}
	// Cancelling the last waiter of an uncommitted request empties the map.
	other := message.ReqID{Client: types.ClientID(0), ClientSeq: 9}
	ch3 := r.CommitNotify(other)
	r.CancelNotify(other, ch3)
	r.mu.Lock()
	leaked = len(r.waiters)
	r.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("waiters map leaked after cancel: %d", leaked)
	}
}

func TestCommitsSinceConcurrentReaders(t *testing.T) {
	r := NewRecorder(true, 64)
	const total = 2000
	var wg sync.WaitGroup
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cursor, seen, dropped uint64
			for seen+dropped < total {
				events, next, d := r.CommitsSince(cursor)
				// Events must be contiguous, in order, no duplicates.
				for i, ev := range events {
					want := types.Seq(cursor + d + uint64(i) + 1)
					if ev.FirstSeq != want {
						t.Errorf("reader saw seq %v at position %v", ev.FirstSeq, want)
						return
					}
				}
				cursor = next
				seen += uint64(len(events))
				dropped += d
			}
		}()
	}
	for i := 1; i <= total; i++ {
		r.OnCommit(commitAt(i))
	}
	wg.Wait()
}
