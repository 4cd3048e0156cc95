package des

import (
	"container/heap"
	"sync"
	"time"
)

// Event is a scheduled callback.
type Event struct {
	at       time.Time
	seq      uint64 // tie-break: FIFO among equal timestamps
	fn       func()
	index    int // heap index while queued; unqueued otherwise
	canceled bool
	pooled   bool // recycled after it runs; never handed to callers
}

// unqueued is the heap index of an event that was popped or removed.
const unqueued = -1

// eventPool recycles Events scheduled through Post. A simulation run
// schedules one event per message delivery; recycling them keeps the
// steady-state hot path allocation-free. Only Post events are pooled: an
// Event returned by At/After may be retained by the caller (for Stop)
// arbitrarily long after it runs.
var eventPool = sync.Pool{New: func() any { return new(Event) }}

// At returns the event's scheduled time.
func (e *Event) At() time.Time { return e.at }

// Stop prevents the event from running. It reports whether the event had
// not yet run (and was therefore actually stopped). An *Event is thereby
// the simulator's timer handle as it stands.
func (e *Event) Stop() bool {
	if e == nil || e.canceled || e.index == unqueued {
		return false
	}
	e.canceled = true
	return true
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = unqueued
	*h = old[:n-1]
	return e
}

// Queue is a min-heap of events ordered by time, then by insertion — the
// one order timers fire in on every substrate. The Scheduler runs a
// simulation off one; the live engine keeps its deadlines in another, so
// equal deadlines fire in the order they were set on either. It is not
// safe for concurrent use.
type Queue struct {
	heap eventHeap
	seq  uint64
}

// Len returns the number of queued events.
func (q *Queue) Len() int { return len(q.heap) }

// Push queues e, which must not be queued already, to fire fn at t,
// behind everything queued for t so far. It returns the insertion's
// sequence number, unique within the queue: together with e it names this
// insertion even after e is recycled for a later one (see Remove).
func (q *Queue) Push(e *Event, t time.Time, fn func()) uint64 {
	q.seq++
	e.at, e.seq, e.fn, e.canceled = t, q.seq, fn, false
	heap.Push(&q.heap, e)
	return e.seq
}

// Head returns the earliest event without removing it, or nil.
func (q *Queue) Head() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// Pop removes the earliest event and returns it with its callback; the
// event no longer holds the callback, so it can be kept or recycled
// without pinning what the callback captured.
func (q *Queue) Pop() (*Event, func()) {
	e := heap.Pop(&q.heap).(*Event)
	fn := e.fn
	e.fn = nil
	return e, fn
}

// Remove takes e out of the queue if it is still queued as insertion seq;
// it reports false when that insertion already fired or was removed,
// whatever e has been reused for since.
func (q *Queue) Remove(e *Event, seq uint64) bool {
	if e.index == unqueued || e.seq != seq {
		return false
	}
	heap.Remove(&q.heap, e.index)
	e.fn = nil
	return true
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; the simulation harness drives it from one goroutine.
type Scheduler struct {
	now    time.Time
	queue  Queue
	nSteps uint64
}

// Epoch is the conventional virtual start time of simulations.
var Epoch = time.Date(2006, time.June, 1, 0, 0, 0, 0, time.UTC)

// New returns a scheduler whose clock starts at start (use Epoch for the
// conventional origin).
func New(start time.Time) *Scheduler {
	return &Scheduler{now: start}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.now }

// Len returns the number of queued events (including canceled ones not yet
// discarded).
func (s *Scheduler) Len() int { return s.queue.Len() }

// Steps returns the number of events executed so far.
func (s *Scheduler) Steps() uint64 { return s.nSteps }

// At schedules fn at time t. Times in the past run "now" (the scheduler
// clock never moves backwards).
func (s *Scheduler) At(t time.Time, fn func()) *Event {
	if t.Before(s.now) {
		t = s.now
	}
	e := new(Event)
	s.queue.Push(e, t, fn)
	return e
}

// After schedules fn after a virtual delay d.
func (s *Scheduler) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// Post schedules fn at time t like At, but the event is pooled and recycled
// after it runs. Use it for fire-and-forget scheduling (message deliveries);
// callers that may need Stop must use At, which hands out the Event.
func (s *Scheduler) Post(t time.Time, fn func()) {
	if t.Before(s.now) {
		t = s.now
	}
	e := eventPool.Get().(*Event)
	e.pooled = true
	s.queue.Push(e, t, fn)
}

// recycle returns a pooled popped event to the pool.
func recycle(e *Event) {
	if e.pooled {
		*e = Event{}
		eventPool.Put(e)
	}
}

// Step runs the next event, advancing the clock to its timestamp. It
// reports whether an event ran (false means the queue is empty).
func (s *Scheduler) Step() bool {
	for s.queue.Len() > 0 {
		e, fn := s.queue.Pop()
		if e.canceled {
			recycle(e)
			continue
		}
		s.now = e.at
		s.nSteps++
		recycle(e) // before fn: reentrant scheduling during fn can reuse it
		fn()
		return true
	}
	return false
}

// RunUntil executes events until the queue is exhausted or the next event
// is after t; the clock finishes at exactly t (or later if an event at t
// scheduled nothing further). It returns the number of events executed.
func (s *Scheduler) RunUntil(t time.Time) int {
	ran := 0
	for {
		e := s.peek()
		if e == nil || e.at.After(t) {
			break
		}
		s.Step()
		ran++
	}
	if s.now.Before(t) {
		s.now = t
	}
	return ran
}

// RunFor executes events for a virtual duration d from the current time.
func (s *Scheduler) RunFor(d time.Duration) int {
	return s.RunUntil(s.now.Add(d))
}

// Drain runs events until the queue empties or limit events have run
// (limit <= 0 means no limit). It returns the number executed. Protocols
// with periodic timers never drain; use RunUntil for those.
func (s *Scheduler) Drain(limit int) int {
	ran := 0
	for limit <= 0 || ran < limit {
		if !s.Step() {
			break
		}
		ran++
	}
	return ran
}

func (s *Scheduler) peek() *Event {
	for e := s.queue.Head(); e != nil; e = s.queue.Head() {
		if !e.canceled {
			return e
		}
		s.queue.Pop()
		recycle(e)
	}
	return nil
}
