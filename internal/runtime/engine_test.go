package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
)

// startEngine attaches a bare engine (fn events only, so no process or
// identity) with prequeued events and starts its loop; prequeued events
// are certain to be drained as one batch.
func startEngine(t *testing.T, prequeued ...func()) (*engine, *sync.WaitGroup) {
	t.Helper()
	e := &engine{}
	e.attach(0, nil, nil, nil, t.Logf)
	for _, fn := range prequeued {
		e.enqueue(liveEvent{fn: fn})
	}
	wg := &sync.WaitGroup{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.loop()
	}()
	return e, wg
}

// TestEngineQueueAllocFree pins the event queue's steady state: the loop
// swaps two backing arrays with the producers, so once both have grown to
// a burst's size, queueing and draining that burst again allocates
// nothing. (Sliding a single slice forward re-grew it every burst.)
func TestEngineQueueAllocFree(t *testing.T) {
	e, wg := startEngine(t)
	const burst = 256
	var ran atomic.Int64
	done := make(chan struct{}, 1)
	work := liveEvent{fn: func() { ran.Add(1) }}
	last := liveEvent{fn: func() { done <- struct{}{} }}
	round := func() {
		for i := 0; i < burst; i++ {
			e.enqueue(work)
		}
		e.enqueue(last)
		<-done
	}
	round() // grow one backing array...
	round() // ...and the other
	const runs = 50
	if got := testing.AllocsPerRun(runs, round); got != 0 {
		t.Errorf("enqueue + drain of %d events = %v allocs per burst, want 0", burst+1, got)
	}
	if got, want := ran.Load(), int64((runs+3)*burst); got != want {
		t.Errorf("ran %d events, want %d (FIFO: every burst ends with its marker)", got, want)
	}
	e.closeLoop()
	wg.Wait()
}

// TestEngineDropsQueuedEventsOnCloseAndDown holds the batch drain to the
// per-event contract of the one-at-a-time loop it replaced: events that
// were queued — even already swapped out into the batch being drained —
// when closeLoop or setDown is called are dropped, not run.
func TestEngineDropsQueuedEventsOnCloseAndDown(t *testing.T) {
	for name, stop := range map[string]func(*engine){
		"closeLoop": (*engine).closeLoop,
		"setDown":   (*engine).setDown,
	} {
		started, gate := make(chan struct{}), make(chan struct{})
		var ran atomic.Int64
		events := []func(){func() { close(started); <-gate }}
		for i := 0; i < 16; i++ {
			events = append(events, func() { ran.Add(1) })
		}
		e, wg := startEngine(t, events...)
		<-started // the loop is inside the first event of the batch
		stop(e)
		close(gate)
		e.closeLoop()
		wg.Wait()
		if got := ran.Load(); got != 0 {
			t.Errorf("%s: %d events queued before it still ran", name, got)
		}
	}
}
