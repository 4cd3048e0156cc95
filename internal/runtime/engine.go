package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/types"
)

// liveEvent is one unit of work in a real-time node's event loop: a
// delivered wire message (raw != nil), an already-decoded self-loopback
// message (msg != nil), or a callback, which the loop hands its Env — so
// Inject queues the caller's function as it is, with no wrapper.
type liveEvent struct {
	from types.NodeID
	raw  []byte
	msg  message.Message
	fn   func(Env)
}

// engine is the delivery core shared by every real-time substrate
// (in-process LiveCluster nodes and TCP endpoints): a condition-variable
// event queue drained by one goroutine that serialises Init, Receive and
// timer callbacks, the deadline queue those timers wait in, the
// encode-once fan-out, the decoded self-loopback, and the identity-backed
// Env surface (time, timers, crypto, logging).
// Substrates embed it and add only what actually differs — how a raw
// encoding crosses to another node (fabric delays vs. peer send queues).
//
// env points back at the embedding substrate node, so protocol callbacks
// receive the full Env (the engine itself has no Send/Multicast).
type engine struct {
	id    types.NodeID
	ident *crypto.Identity
	proc  Process
	env   Env
	logf  func(format string, args ...any)

	// Producers append to queue under mu; the loop takes the whole slice
	// in one swap and hands its drained one back as the next queue, so the
	// two backing arrays are reused instead of sliding off and re-growing.
	// closed and down are atomics because the loop consults them before
	// every event of a drained batch, outside mu.
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []liveEvent
	closed atomic.Bool
	down   atomic.Bool

	timers timerQueue
	// The loop goroutine's alone: ScratchDigest's and ScratchSign's results,
	// the slabs decoded Requests and Acks are carved from, and the arenas
	// the messages signed on the loop are copied into.
	scratch    []byte
	sigScratch []byte
	dec        message.Decoder
	arenas     message.Arenas

	// Frames that failed to decode: counted for /metrics (nil without a
	// registry) and, per sender, for the log's sake — a peer sending
	// garbage must not write the log at wire rate.
	undecodable     *obs.Counter
	undecodableFrom map[types.NodeID]uint64
}

// undecodableLogEvery is how often a sender's undecodable frames are
// logged after its first.
const undecodableLogEvery = 1024

// attach wires the engine to its owner; env is the embedding node.
func (e *engine) attach(id types.NodeID, ident *crypto.Identity, proc Process, env Env,
	logf func(format string, args ...any)) {
	e.id, e.ident, e.proc, e.env, e.logf = id, ident, proc, env, logf
	e.cond = sync.NewCond(&e.mu)
	run := func(Env) { e.runTimers() } // one function for the engine's life, not one per wake-up
	e.timers.onWake = func() { e.enqueue(liveEvent{fn: run}) }
}

func (e *engine) enqueue(ev liveEvent) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return
	}
	e.queue = append(e.queue, ev)
	e.cond.Signal()
}

// enqueueInit schedules the process's Init inside the event loop.
func (e *engine) enqueueInit() {
	e.enqueue(liveEvent{fn: e.proc.Init})
}

// startLoop launches the event loop under wg with Init as the first queued
// event. Substrates must call it BEFORE opening their inbound path
// (transport handler, fabric delivery): the queue is FIFO, so anything a
// peer delivers afterwards — including a session layer's recovered-frame
// replay the instant the first handshake completes — is processed after
// Init, never ahead of it. Restarted nodes depend on this ordering: the
// replay of their dead incarnation's window must meet an initialised
// process.
func (e *engine) startLoop(wg *sync.WaitGroup) {
	e.enqueueInit()
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.loop()
	}()
}

// loopback delivers a self-addressed message without touching the wire:
// messages are immutable and the event loop serialises handling, so the
// decoded form is handed over as-is.
func (e *engine) loopback(m message.Message) {
	e.enqueue(liveEvent{from: e.id, msg: m})
}

// closeLoop stops the event loop; events still queued are dropped and
// every pending timer is cancelled.
func (e *engine) closeLoop() {
	e.timers.close()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed.Store(true) // under mu: a waiting loop must not miss the broadcast
	e.cond.Broadcast()
}

func (e *engine) setDown() { e.down.Store(true) }

func (e *engine) isDown() bool { return e.down.Load() }

// loop drains the event queue in FIFO order, decoding wire payloads and
// dispatching to the process until closeLoop.
func (e *engine) loop() {
	var batch []liveEvent
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed.Load() {
			e.cond.Wait()
		}
		batch, e.queue = e.queue, batch[:0]
		e.mu.Unlock()

		for i := range batch {
			ev := batch[i]
			batch[i] = liveEvent{} // a consumed frame must not stay pinned by the array
			if e.closed.Load() {
				return
			}
			if !e.down.Load() {
				e.dispatch(ev)
			}
		}
		if e.closed.Load() {
			return
		}
	}
}

func (e *engine) dispatch(ev liveEvent) {
	if ev.fn != nil {
		ev.fn(e.env)
		return
	}
	if ev.msg != nil {
		e.proc.Receive(e.env, ev.from, ev.msg)
		return
	}
	m, err := e.dec.Decode(ev.raw)
	if err != nil {
		e.dropUndecodable(ev.from, err)
		return
	}
	e.proc.Receive(e.env, ev.from, m)
}

func (e *engine) dropUndecodable(from types.NodeID, err error) {
	e.undecodable.Inc()
	if e.undecodableFrom == nil {
		e.undecodableFrom = make(map[types.NodeID]uint64)
	}
	e.undecodableFrom[from]++
	if n := e.undecodableFrom[from]; n == 1 || n%undecodableLogEvery == 0 {
		e.Logf("dropping undecodable message from %v (%d so far): %v", from, n, err)
	}
}

// fanOut is the encode-once fan-out: m is marshalled exactly once (and
// concrete message types additionally cache the encoding on the message
// itself) and deliver is invoked for every destination with the shared
// encoding. deliver decides how the bytes cross — including how a
// self-addressed copy bypasses the wire.
func (e *engine) fanOut(tos []types.NodeID, m message.Message, deliver func(to types.NodeID, m message.Message, raw []byte)) {
	if e.isDown() {
		return
	}
	raw := m.Marshal()
	for _, to := range tos {
		deliver(to, m, raw)
	}
}

// ID implements Env.
func (e *engine) ID() types.NodeID { return e.id }

// Now implements Env.
func (e *engine) Now() time.Time { return time.Now() }

// Charge implements Env (no-op: live operations take real time).
func (e *engine) Charge(time.Duration) {}

// SetTimer implements Env.
func (e *engine) SetTimer(d time.Duration, fn func()) Timer { return e.timers.set(d, fn) }

// runTimers is the expiry run a wake-up queues: it fires every due timer,
// earliest deadline first, consulting closed and down before each as the
// loop does before each event.
func (e *engine) runTimers() {
	for !e.closed.Load() && !e.down.Load() {
		fn := e.timers.due()
		if fn == nil {
			return
		}
		fn()
	}
}

// Digest implements Env.
func (e *engine) Digest(data []byte) []byte { return e.ident.Digest(data) }

// ScratchDigest implements Env.
func (e *engine) ScratchDigest(data []byte) []byte {
	e.scratch = e.ident.AppendDigest(e.scratch[:0], data)
	return e.scratch
}

// Sign implements Env.
func (e *engine) Sign(digest []byte) (crypto.Signature, error) { return e.ident.Sign(digest) }

// ScratchSign implements Env.
func (e *engine) ScratchSign(digest []byte) (crypto.Signature, error) {
	var err error
	e.sigScratch, err = e.ident.AppendSign(e.sigScratch[:0], digest)
	return e.sigScratch, err
}

// WireArenas is where message.Sign copies the messages signed on the loop.
func (e *engine) WireArenas() *message.Arenas { return &e.arenas }

// Verify implements Env.
func (e *engine) Verify(signer types.NodeID, digest []byte, sig crypto.Signature) error {
	return e.ident.Verify(signer, digest, sig)
}

// Logf implements Env.
func (e *engine) Logf(format string, args ...any) { e.logf(format, args...) }
