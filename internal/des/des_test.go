package des

import (
	"testing"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New(Epoch)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	if n := s.Drain(0); n != 3 {
		t.Fatalf("Drain ran %d events, want 3", n)
	}
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("order = %v", got)
		}
	}
	if want := Epoch.Add(30 * time.Millisecond); !s.Now().Equal(want) {
		t.Errorf("Now() = %v, want %v", s.Now(), want)
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	s := New(Epoch)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(5*time.Millisecond, func() { got = append(got, i) })
	}
	s.Drain(0)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(Epoch)
	ran := false
	e := s.After(time.Millisecond, func() { ran = true })
	if !e.Stop() {
		t.Error("Stop() = false for pending event")
	}
	if e.Stop() {
		t.Error("second Stop() = true")
	}
	s.Drain(0)
	if ran {
		t.Error("canceled event ran")
	}

	// Stop after the event has run reports false.
	var e2 *Event
	e2 = s.After(time.Millisecond, func() {})
	s.Drain(0)
	if e2.Stop() {
		t.Error("Stop() after run = true")
	}
	if (*Event)(nil).Stop() {
		t.Error("nil Stop() = true")
	}
}

func TestEventsScheduledDuringEvents(t *testing.T) {
	s := New(Epoch)
	var got []string
	s.After(10*time.Millisecond, func() {
		got = append(got, "a")
		s.After(5*time.Millisecond, func() { got = append(got, "c") })
		s.After(0, func() { got = append(got, "b") })
	})
	s.Drain(0)
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPastSchedulingClampsToNow(t *testing.T) {
	s := New(Epoch)
	s.RunUntil(Epoch.Add(time.Second))
	ran := false
	s.At(Epoch, func() { ran = true }) // in the past
	s.Step()
	if !ran {
		t.Fatal("past event did not run")
	}
	if s.Now().Before(Epoch.Add(time.Second)) {
		t.Errorf("clock moved backwards: %v", s.Now())
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	s := New(Epoch)
	var got []int
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(30*time.Millisecond, func() { got = append(got, 2) })
	n := s.RunUntil(Epoch.Add(20 * time.Millisecond))
	if n != 1 || len(got) != 1 {
		t.Fatalf("RunUntil ran %d events (%v), want 1", n, got)
	}
	if want := Epoch.Add(20 * time.Millisecond); !s.Now().Equal(want) {
		t.Errorf("Now() = %v, want %v", s.Now(), want)
	}
	// An event exactly at the boundary runs.
	s.At(Epoch.Add(25*time.Millisecond), func() { got = append(got, 3) })
	s.RunUntil(Epoch.Add(25 * time.Millisecond))
	if len(got) != 2 || got[1] != 3 {
		t.Errorf("boundary event did not run: %v", got)
	}
}

func TestRunForAdvancesClock(t *testing.T) {
	s := New(Epoch)
	s.RunFor(42 * time.Millisecond)
	if want := Epoch.Add(42 * time.Millisecond); !s.Now().Equal(want) {
		t.Errorf("Now() = %v, want %v", s.Now(), want)
	}
}

func TestDrainLimit(t *testing.T) {
	s := New(Epoch)
	count := 0
	// A self-perpetuating timer chain would run forever without a limit.
	var tick func()
	tick = func() {
		count++
		s.After(time.Millisecond, tick)
	}
	s.After(time.Millisecond, tick)
	if n := s.Drain(100); n != 100 {
		t.Errorf("Drain(100) ran %d", n)
	}
	if count != 100 {
		t.Errorf("count = %d", count)
	}
}

func TestNegativeDelayClamps(t *testing.T) {
	s := New(Epoch)
	ran := false
	s.After(-time.Second, func() { ran = true })
	s.Step()
	if !ran || !s.Now().Equal(Epoch) {
		t.Errorf("negative delay: ran=%v now=%v", ran, s.Now())
	}
}

func TestStepsCounter(t *testing.T) {
	s := New(Epoch)
	for i := 0; i < 5; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Drain(0)
	if s.Steps() != 5 {
		t.Errorf("Steps() = %d, want 5", s.Steps())
	}
	if s.Len() != 0 {
		t.Errorf("Len() = %d, want 0", s.Len())
	}
}

// TestQueueRemoveNamesOneInsertion pins what lets the live engine recycle
// entries: an (event, sequence number) pair names one insertion for good.
// Once that insertion was removed or popped, Remove under its number
// reports false whatever the event has been reused for since.
func TestQueueRemoveNamesOneInsertion(t *testing.T) {
	var q Queue
	at := Epoch.Add(time.Second)
	e := new(Event)
	first := q.Push(e, at, func() {})
	if !q.Remove(e, first) || q.Len() != 0 {
		t.Fatalf("Remove of a queued insertion failed (len %d)", q.Len())
	}
	if q.Remove(e, first) {
		t.Error("a second Remove of the same insertion reported true")
	}
	ran := false
	second := q.Push(e, at, func() { ran = true }) // the entry, recycled
	if q.Remove(e, first) {
		t.Fatal("the stale insertion's Remove took out the entry's next one")
	}
	if head := q.Head(); head != e || !head.At().Equal(at) {
		t.Fatalf("Head() = %v", head)
	}
	popped, fn := q.Pop()
	if popped != e || fn == nil {
		t.Fatalf("Pop() = %v, fn nil=%v", popped, fn == nil)
	}
	fn()
	if !ran {
		t.Error("Pop returned the wrong callback")
	}
	if q.Remove(e, second) {
		t.Error("Remove after Pop reported true")
	}
	if q.Head() != nil {
		t.Error("Head() of an empty queue is not nil")
	}
}

// TestQueueOrdersByTimeThenInsertion is the tie-break both substrates
// share, stated on the queue itself — with removals in between, as timers
// stopped on the live engine make them.
func TestQueueOrdersByTimeThenInsertion(t *testing.T) {
	var q Queue
	var got []int
	add := func(i int, d time.Duration) (*Event, uint64) {
		e := new(Event)
		return e, q.Push(e, Epoch.Add(d), func() { got = append(got, i) })
	}
	add(3, 2*time.Millisecond)
	add(0, time.Millisecond)
	gone, seq := add(9, time.Millisecond)
	add(1, time.Millisecond)
	add(2, time.Millisecond)
	q.Remove(gone, seq)
	for q.Len() > 0 {
		_, fn := q.Pop()
		fn()
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("fired %v, want 0 1 2 3", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("fired %v, want 0 1 2 3", got)
	}
}
