package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/sof-repro/sof/internal/des"
)

// timerQueue is a live engine's deadline queue: every pending SetTimer of
// the process is one entry of a single heap — the simulator's, so equal
// deadlines fire in SetTimer order on both substrates — and one runtime
// timer is kept armed for its head. The wake-up only queues an expiry run
// on the event loop; the loop pops what is due and runs it, so callbacks
// stay serialised with Receive and in deadline order. Closing the queue
// drops every entry and disarms the runtime timer: nothing the process
// scheduled outlives its engine.
//
// mu guards everything below it. SetTimer and Stop may be called from any
// goroutine; callbacks run only on the loop.
type timerQueue struct {
	onWake func() // queues an expiry run on the loop; fixed at attach

	mu      sync.Mutex
	q       des.Queue
	free    []*des.Event  // entries of fired and stopped timers, for reuse
	handles []timerHandle // the chunk the next handles are cut from
	wake    *time.Timer
	// waker is wake's only way into the queue, cut at close: the Go
	// runtime keeps a stopped timer, callback included, in its heap until
	// its deadline comes round while live timers sit ahead of it, so a
	// callback holding onWake would keep the engine — and the process it
	// runs — reachable that long after the engine stopped.
	waker *waker
	// wakeAt is the deadline an expiry run is owed for: wake is armed for
	// it, or has fired and the run is queued or running. Zero when the
	// queue is empty and nothing is owed.
	wakeAt time.Time
	closed bool
}

// handleChunk is how many handles one allocation yields.
const handleChunk = 128

// waker forwards wake's expiry to the queue's onWake until close cuts it.
type waker struct{ onWake atomic.Pointer[func()] }

func (w *waker) fire() {
	if fn := w.onWake.Load(); fn != nil {
		(*fn)()
	}
}

// timerHandle is the live engine's Timer: an entry plus a generation.
// Entries are recycled, so the entry alone would let a handle kept past
// its timer's end stop whichever timer the entry carries next; the
// insertion sequence number tells the two apart.
type timerHandle struct {
	tq  *timerQueue
	ev  *des.Event
	seq uint64
}

// Stop implements Timer.
func (h *timerHandle) Stop() bool {
	tq := h.tq
	tq.mu.Lock()
	defer tq.mu.Unlock()
	if tq.closed || !tq.q.Remove(h.ev, h.seq) {
		return false
	}
	// A stopped head leaves the wake-up armed early; the run it causes
	// finds nothing due and re-arms for the new head.
	tq.free = append(tq.free, h.ev)
	return true
}

// deadTimer is what SetTimer hands out once the queue is closed.
type deadTimer struct{}

func (deadTimer) Stop() bool { return false }

// set queues fn to run d from now.
func (tq *timerQueue) set(d time.Duration, fn func()) Timer {
	at := time.Now().Add(d)
	tq.mu.Lock()
	defer tq.mu.Unlock()
	if tq.closed {
		return deadTimer{}
	}
	var ev *des.Event
	if n := len(tq.free); n > 0 {
		ev, tq.free = tq.free[n-1], tq.free[:n-1]
	} else {
		ev = new(des.Event)
	}
	seq := tq.q.Push(ev, at, fn)
	if tq.wakeAt.IsZero() || at.Before(tq.wakeAt) {
		tq.arm(at, d)
	}
	if len(tq.handles) == 0 {
		tq.handles = make([]timerHandle, handleChunk)
	}
	h := &tq.handles[0]
	tq.handles = tq.handles[1:]
	*h = timerHandle{tq: tq, ev: ev, seq: seq}
	return h
}

// arm points the runtime timer at deadline at, d from now.
func (tq *timerQueue) arm(at time.Time, d time.Duration) {
	if tq.wake == nil {
		tq.waker = &waker{}
		tq.waker.onWake.Store(&tq.onWake)
		tq.wake = time.AfterFunc(d, tq.waker.fire)
	} else {
		tq.wake.Reset(d)
	}
	tq.wakeAt = at
}

// due pops the earliest timer if its deadline has passed and returns its
// callback. Otherwise it returns nil with the wake-up armed for the head,
// or with nothing owed when the queue is empty.
func (tq *timerQueue) due() func() {
	tq.mu.Lock()
	defer tq.mu.Unlock()
	head := tq.q.Head()
	if head == nil {
		tq.wakeAt = time.Time{}
		return nil
	}
	if at, now := head.At(), time.Now(); at.After(now) {
		tq.arm(at, at.Sub(now))
		return nil
	}
	ev, fn := tq.q.Pop()
	tq.free = append(tq.free, ev)
	return fn
}

// close cancels every pending timer and refuses new ones.
func (tq *timerQueue) close() {
	tq.mu.Lock()
	defer tq.mu.Unlock()
	tq.closed = true
	if tq.wake != nil {
		tq.wake.Stop()
		tq.waker.onWake.Store(nil)
	}
	tq.q, tq.free, tq.handles = des.Queue{}, nil, nil
}
