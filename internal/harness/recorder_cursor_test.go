package harness

import (
	"runtime"
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

// TestCommittedIndexSurvivesEviction: evicting an event takes out of the
// index only the requests it first committed. Requests whose commits the
// ring still holds survive the eviction of every older event, and a
// request that never committed is never reported.
func TestCommittedIndexSurvivesEviction(t *testing.T) {
	r := NewRecorder(true, 2)
	for i := 1; i <= 50; i++ {
		r.OnCommit(commitAt(i))
	}
	for _, seq := range []uint64{49, 50} {
		id := message.ReqID{Client: types.ClientID(0), ClientSeq: seq}
		if !r.Committed(id) {
			t.Errorf("Committed(%v) = false while its commit is retained", id)
		}
	}
	for _, seq := range []uint64{1, 25, 48} {
		id := message.ReqID{Client: types.ClientID(0), ClientSeq: seq}
		if r.Committed(id) {
			t.Errorf("Committed(%v) = true after its commit was evicted", id)
		}
	}
	if r.Committed(message.ReqID{Client: types.ClientID(0), ClientSeq: 99}) {
		t.Error("Committed(uncommitted) = true")
	}
}

// TestRecorderOnCommitAllocFree pins what recording a commit costs the
// heap once the ring is full and nobody awaits a commit: nothing. The
// evicted event's index entries make room for the new event's, and the
// commit signal is not touched.
func TestRecorderOnCommitAllocFree(t *testing.T) {
	const (
		runs   = 1000
		retain = 64
	)
	r := NewRecorder(true, retain)
	commits := make([]core.CommitEvent, retain+runs+1)
	for i := range commits {
		commits[i] = commitAt(i + 1)
	}
	next := 0
	for ; next < retain; next++ {
		r.OnCommit(commits[next])
	}
	got := testing.AllocsPerRun(runs, func() {
		r.OnCommit(commits[next])
		next++
	})
	if got != 0 && !raceEnabled {
		t.Errorf("OnCommit into a full ring = %v allocs, want 0", got)
	}
	if n := r.CommittedIndexSize(); n != retain {
		t.Errorf("index holds %d requests, want the ring's %d", n, retain)
	}
}

// waitCluster is a live Cluster over recs alone, sharing one commit
// signal as New's group recorders do: enough for AwaitCommit.
func waitCluster(recs ...*Recorder) *Cluster {
	for _, r := range recs[1:] {
		r.wake = recs[0].wake
	}
	return &Cluster{Events: recs[0], recorders: recs}
}

// TestAwaitCommitWakesOnCommit: a live waiter returns when its requests
// commit — in any group — long before its timeout, and at once for a
// request committed before it asked.
func TestAwaitCommitWakesOnCommit(t *testing.T) {
	g0, g1 := NewRecorder(false, 0), NewRecorder(true, 16)
	c := waitCluster(g0, g1)
	g0.OnCommit(commitAt(1))
	if missing := c.AwaitCommit(0, reqID(1)); missing != 0 {
		t.Fatalf("AwaitCommit on a committed request: %d missing", missing)
	}
	go func() {
		for g0.wake.waiting.Load() == 0 {
			runtime.Gosched()
		}
		time.Sleep(10 * time.Millisecond) // most likely parked by now
		g1.OnCommit(commitAt(7))
		g0.OnCommit(commitAt(8))
	}()
	start := time.Now()
	if missing := c.AwaitCommit(time.Minute, reqID(7), reqID(8)); missing != 0 {
		t.Fatalf("AwaitCommit: %d missing", missing)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("waiter woke %v after its commits", waited)
	}
}

// TestAwaitCommitTimeoutLeavesNothing: a waiter that times out reports
// how many requests never committed and leaves no waiter behind, so the
// next commit does not signal, and the recorder holds only its commits.
func TestAwaitCommitTimeoutLeavesNothing(t *testing.T) {
	r := NewRecorder(false, 0)
	c := waitCluster(r)
	r.OnCommit(commitAt(1))
	if missing := c.AwaitCommit(20*time.Millisecond, reqID(1), reqID(2), reqID(3)); missing != 2 {
		t.Fatalf("AwaitCommit: %d missing, want 2", missing)
	}
	if n := r.wake.waiting.Load(); n != 0 {
		t.Fatalf("%d waiters left after the timeout", n)
	}
	parked := r.wake.next()
	r.OnCommit(commitAt(2))
	select {
	case <-parked:
		t.Fatal("a commit signalled with nobody waiting")
	default:
	}
	if n := r.CommittedIndexSize(); n != 2 {
		t.Fatalf("index holds %d requests, want 2", n)
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
