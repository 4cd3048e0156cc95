package runtime

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/types"
)

// startEngine attaches a bare engine (fn events only, so no process or
// identity) with prequeued events and starts its loop; prequeued events
// are certain to be drained as one batch.
func startEngine(t *testing.T, prequeued ...func()) (*engine, *sync.WaitGroup) {
	t.Helper()
	e := &engine{}
	e.attach(0, nil, nil, nil, t.Logf)
	for _, fn := range prequeued {
		e.enqueue(liveEvent{fn: func(Env) { fn() }})
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
	work := liveEvent{fn: func(Env) { ran.Add(1) }}
	last := liveEvent{fn: func(Env) { done <- struct{}{} }}
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

// holder keeps every message it receives.
type holder struct{ got []message.Message }

func (h *holder) Init(Env) {}

func (h *holder) Receive(_ Env, _ types.NodeID, m message.Message) { h.got = append(h.got, m) }

// TestUndecodableFramesCountedAndLoggedSparsely floods an engine with
// frames that do not decode: each is counted, a sender's first and every
// 1024th are logged — not one line per frame — and the failed decodes
// consume no slab element, so the Requests decoded before, between and
// after them are distinct structs that keep their own fields.
func TestUndecodableFramesCountedAndLoggedSparsely(t *testing.T) {
	var logMu sync.Mutex
	var logged []string
	reg := obs.NewRegistry()
	h := &holder{}
	e := &engine{}
	e.attach(0, nil, h, nil, func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	})
	e.undecodable = reg.Counter("sof_frames_undecodable_total", "test")

	wire := func(seq uint64) []byte {
		return (&message.Request{Client: types.ClientID(0), ClientSeq: seq, Payload: []byte{byte(seq)},
			Sig: crypto.Signature("a signature")}).Marshal()
	}
	// A frame that fails late: a whole Request with a byte after it, so the
	// failed decode has filled every field of the element it was given.
	garbage := func(seq uint64) []byte { return append(wire(seq), 0) }
	const flood = 2*undecodableLogEvery + 5
	e.enqueue(liveEvent{from: 1, raw: wire(1)})
	for i := 0; i < flood; i++ {
		e.enqueue(liveEvent{from: 1, raw: garbage(100)})
		if i == flood/2 {
			e.enqueue(liveEvent{from: 1, raw: wire(2)})
		}
	}
	e.enqueue(liveEvent{from: 2, raw: []byte{0xff}})
	e.enqueue(liveEvent{from: 2, raw: nil}) // an empty frame is undecodable too
	e.enqueue(liveEvent{from: 1, raw: wire(3)})
	done := make(chan struct{})
	e.enqueue(liveEvent{fn: func(Env) { close(done) }})
	wg := &sync.WaitGroup{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.loop()
	}()
	<-done
	e.closeLoop()
	wg.Wait()

	if got := e.undecodable.Value(); got != flood+2 {
		t.Errorf("sof_frames_undecodable_total = %d, want %d", got, flood+2)
	}
	// Sender 1: its 1st, 1024th and 2048th; sender 2: its 1st.
	if len(logged) != 4 {
		t.Errorf("%d undecodable frames wrote %d log lines, want 4:\n%s", flood+2, len(logged), strings.Join(logged, "\n"))
	}
	if len(h.got) != 3 {
		t.Fatalf("process received %d messages, want the 3 valid requests", len(h.got))
	}
	for i, m := range h.got {
		r := m.(*message.Request)
		if want := uint64(i + 1); r.ClientSeq != want || !bytes.Equal(r.Payload, []byte{byte(want)}) ||
			!bytes.Equal(r.Marshal(), wire(want)) {
			t.Errorf("request %d was overwritten by an undecodable neighbour: %+v", want, r)
		}
		if i > 0 {
			// Slab neighbours: the thousand failures in between carved nothing.
			prev := h.got[i-1].(*message.Request)
			if gap := uintptr(unsafe.Pointer(r)) - uintptr(unsafe.Pointer(prev)); gap != unsafe.Sizeof(*r) {
				t.Errorf("requests %d and %d lie %d bytes apart, want adjacent slab elements (%d)", i, i+1, gap, unsafe.Sizeof(*r))
			}
		}
	}
}

// receivedProc records what the engine hands its process.
type receivedProc struct{ got []message.Message }

func (p *receivedProc) Init(Env) {}

func (p *receivedProc) Receive(_ Env, _ types.NodeID, m message.Message) { p.got = append(p.got, m) }

// TestLoopbackBatchIsRecognisedOnReturn covers the engine's half of the
// duplicate rule: a batch a node sends itself is remembered by its
// Decoder, so the copy a peer forwards back over the wire reaches the
// process as that same object and counts in sof_duplicate_batches_total;
// a batch with different bytes decodes fresh and counts nothing.
func TestLoopbackBatchIsRecognisedOnReturn(t *testing.T) {
	proc := &receivedProc{}
	e := &engine{}
	e.attach(0, nil, proc, nil, t.Logf)
	reg := obs.NewRegistry()
	e.duplicates = reg.Counter("sof_duplicate_batches_total", "")
	batch := func(first types.Seq) *message.OrderBatch {
		b := message.NewOrderBatch(1)
		b.Coord, b.View, b.FirstSeq, b.Primary, b.Shadow = 1, 1, first, 0, 1
		b.Entries[0] = message.OrderEntry{Req: message.ReqID{Client: 100, ClientSeq: 1}, ReqDigest: make([]byte, 32)}
		b.Sig1, b.Sig2 = bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{2}, 32)
		return b
	}
	endorsed := batch(7)
	e.loopback(endorsed)
	forward := bytes.Clone(endorsed.Marshal())
	for _, ev := range append(e.queue,
		liveEvent{from: 1, raw: forward},
		liveEvent{from: 1, raw: forward[:1]}, // undecodable: counts nothing
		liveEvent{from: 1, raw: batch(8).Marshal()}) {
		e.dispatch(ev)
	}
	if len(proc.got) != 3 || proc.got[0] != endorsed || proc.got[1] != endorsed {
		t.Fatalf("received %v, want the loopback and the forward as the same batch %p", proc.got, endorsed)
	}
	if proc.got[2] == message.Message(endorsed) || proc.got[2].(*message.OrderBatch).FirstSeq != 8 {
		t.Error("a batch with different bytes was taken for the remembered one")
	}
	if got := e.duplicates.Value(); got != 1 {
		t.Errorf("sof_duplicate_batches_total = %d, want 1", got)
	}
}
