package tcpnet

import (
	"crypto/rand"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/session"
	"github.com/sof-repro/sof/internal/types"
)

// helloTimeout bounds how long an inbound connection may take to send its
// identifying hello before it is dropped.
const helloTimeout = 10 * time.Second

// Options tunes a Transport. The zero value selects production defaults.
type Options struct {
	// QueueLen bounds each peer's send queue, in frames (default 1024).
	// When a peer's queue is full, further frames to it are dropped and
	// counted; senders never block.
	QueueLen int
	// MaxBatch bounds how many frames one writev syscall carries
	// (default 64).
	MaxBatch int
	// DialTimeout bounds one connection attempt (default 3 s).
	DialTimeout time.Duration
	// RedialMin and RedialMax bound the jittered exponential backoff
	// between redial attempts to a dead peer (defaults 50 ms and 2 s).
	RedialMin, RedialMax time.Duration
	// Session configures the wire's HMAC-authenticated hellos and data
	// frames, their per-direction sequence numbers and the gap replay on
	// reconnect. Every endpoint internal/node builds sets it from the
	// dealer's link keys. Nil selects keys drawn once per OS process
	// (see processLinks): such a Transport authenticates only Transports
	// of its own process. With Session.Journal the session state is
	// durable and Start eagerly redials peers whose previous-incarnation
	// frames await replay.
	Session *session.Config
	// HandshakeTimeout bounds the dial-side wait for the session
	// hello-ack (default 5 s).
	HandshakeTimeout time.Duration
	// Metrics, when non-nil, receives live transport instruments: the
	// per-peer queue/drop/retransmit/reconnect counters and queue depth,
	// and the inbound session counters, all labeled node/peer. They are
	// function-backed — the registry reads the counters the transport
	// already keeps, at scrape time — so the frame hot path is untouched.
	Metrics *obs.Registry
	// TLSServer, when non-nil, wraps every accepted inbound connection in
	// a TLS server handshake before the hello is read. TLSClient wraps
	// every outbound dial. Every endpoint of a deployment must agree — a TLS
	// listener rejects plaintext dials and vice versa. TLS composes with
	// Session: the HMAC session layer keeps authenticating endpoints and
	// frames, TLS adds confidentiality underneath. DevTLS derives a
	// matched config pair from a shared secret.
	TLSServer *tls.Config
	TLSClient *tls.Config
	// Shape, when non-nil, imposes simulated link conditions on outbound
	// traffic (the netsim fabric wired onto real sockets for WAN-profile
	// experiments): for a write of size bytes to peer `to` it returns the
	// delay to impose first and whether the link is deliverable at all.
	// A cut link (ok=false) fails dials and writes; the sealed frames
	// wait in the retransmission ring and replay when the link heals.
	// Dial probes pass size 0.
	Shape func(to types.NodeID, size int) (time.Duration, bool)
	// Listener, when non-nil, is the already-bound listener the transport
	// serves on (and closes); Listen's addr is then ignored. A caller that
	// must know its address before it builds the transport binds first and
	// hands the listener over, instead of releasing the port and hoping to
	// get it back.
	Listener net.Listener
}

func (o Options) withDefaults() Options {
	if o.QueueLen == 0 {
		o.QueueLen = 1024
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 64
	}
	if o.DialTimeout == 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.RedialMin == 0 {
		o.RedialMin = 50 * time.Millisecond
	}
	if o.RedialMax == 0 {
		o.RedialMax = 2 * time.Second
	}
	if o.HandshakeTimeout == 0 {
		o.HandshakeTimeout = 5 * time.Second
	}
	if o.Session == nil {
		o.Session = &session.Config{Keys: processLinks()}
	}
	return o
}

// processLinks is the link master of Transports built without a Session:
// drawn once per OS process, so no endpoint elsewhere holds it and such
// Transports accept only one another.
var processLinks = sync.OnceValue(func() *crypto.LinkKeys {
	master := make([]byte, 32)
	_, _ = rand.Read(master) // crashes the program rather than fail
	return crypto.NewLinkKeys(master)
})

// Handler consumes one inbound frame. The payload is never written again
// and is owned by the handler (message.Decode may alias it); it is a slice
// of a receive chunk shared with the connection's neighbouring frames, so
// whatever keeps it keeps the chunk. Handlers are invoked concurrently from
// per-connection reader goroutines and must be thread-safe.
type Handler func(from types.NodeID, frame []byte)

// Transport is one process's TCP endpoint: a listener demultiplexing
// inbound frames to a Handler, and a lazily-built set of peer senders for
// outbound frames.
type Transport struct {
	id     types.NodeID
	ln     net.Listener
	logger *log.Logger
	opts   Options

	mu    sync.Mutex
	peers map[types.NodeID]string
	// senders is copy-on-write: Send finds an established peer in the
	// published map without mu; a peer is created under mu, as ever, and
	// published in a copy.
	senders       atomic.Pointer[map[types.NodeID]*peer]
	recvs         map[types.NodeID]*session.Receiver
	inbound       map[net.Conn]struct{}
	unknownLogged map[types.NodeID]struct{}
	handler       Handler
	// closed is an atomic because read loops consult it per frame without
	// mu; it is stored under mu so sender() and the accept loop, which
	// check it there, never register anything on a closed transport.
	closed atomic.Bool
	wg     sync.WaitGroup

	fatal chan error
}

// Listen binds a transport for process id on addr (or adopts
// opts.Listener). peers maps every other process (and known client) ID to
// its address; it may be nil and supplied later with SetPeers, as long as
// that happens before the first Send.
func Listen(id types.NodeID, addr string, peers map[types.NodeID]string,
	logger *log.Logger, opts Options) (*Transport, error) {
	ln := opts.Listener
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", addr); err != nil {
			return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
		}
	}
	if logger == nil {
		logger = log.Default()
	}
	t := &Transport{
		id:            id,
		ln:            ln,
		logger:        logger,
		opts:          opts.withDefaults(),
		peers:         make(map[types.NodeID]string),
		recvs:         make(map[types.NodeID]*session.Receiver),
		inbound:       make(map[net.Conn]struct{}),
		unknownLogged: make(map[types.NodeID]struct{}),
		fatal:         make(chan error, 1),
	}
	t.senders.Store(&map[types.NodeID]*peer{})
	t.SetPeers(peers)
	if m := t.opts.Metrics; m != nil {
		m.GaugeFunc("sof_transport_connected_peers",
			"Peers with a live outbound connection from this node.",
			func() float64 { return float64(len(t.ConnectedPeers())) },
			obs.L("node", fmt.Sprint(id)))
	}
	return t, nil
}

// Addr returns the bound listen address.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// ID returns the owning process's NodeID.
func (t *Transport) ID() types.NodeID { return t.id }

// SetPeers merges address mappings for peers. Cluster assembly binds every
// listener first (to learn ephemeral ports), then distributes the full map
// before starting; changing the address of a peer that already has a live
// sender does not retarget it.
func (t *Transport) SetPeers(peers map[types.NodeID]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, addr := range peers {
		t.peers[id] = addr
	}
}

// Start begins accepting inbound connections, delivering each frame to h.
// With a durable session journal it also starts a sender for every peer
// whose previous-incarnation frames await replay, so recovery does not
// wait for new outbound traffic to trigger the dial.
func (t *Transport) Start(h Handler) {
	t.mu.Lock()
	t.handler = h
	t.mu.Unlock()
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		t.acceptLoop(h)
	}()
	if t.opts.Session.Journal != nil {
		for _, id := range t.opts.Session.Journal.PendingReplay(t.id) {
			if id == t.id {
				continue
			}
			t.sender(id) // spawns the sender loop, which replays eagerly
		}
	}
}

// Fatal reports an unrecoverable transport failure (the listener died
// while the transport was supposed to be serving). At most one error is
// delivered; an explicit Close never produces one.
func (t *Transport) Fatal() <-chan error { return t.fatal }

// Close shuts the listener, every peer sender and every inbound
// connection, and waits for all transport goroutines to exit.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		return
	}
	t.closed.Store(true)
	for _, p := range *t.senders.Load() {
		p.close()
	}
	for c := range t.inbound {
		_ = c.Close()
	}
	t.mu.Unlock()
	_ = t.ln.Close()
	t.wg.Wait()
}

// maxBody is the largest payload Send accepts: a wire frame less the
// session header and MAC sealing adds.
const maxBody = MaxFrame - session.Overhead

// Send enqueues raw (which must be immutable — the cached wire encoding
// is) to one peer, dialling it lazily. It never blocks: it reports false
// if the frame was dropped because it cannot fit a wire frame, the peer
// is unknown, its queue is full, or the transport is closed. A
// self-addressed frame is delivered straight to the handler.
func (t *Transport) Send(to types.NodeID, raw []byte) bool {
	if len(raw) > maxBody {
		// Never let an unsendable frame into a peer queue: the receiver
		// would reject it, and it would sit unacknowledged in the
		// retransmission ring and wedge the link by being replayed on
		// every reconnect.
		t.logger.Printf("tcpnet %v: dropping %d-byte frame to %v: exceeds the %d-byte frame limit", t.id, len(raw), to, maxBody)
		return false
	}
	if to == t.id {
		t.mu.Lock()
		h := t.handler
		t.mu.Unlock()
		if t.closed.Load() || h == nil {
			return false
		}
		h(t.id, raw)
		return true
	}
	p := t.sender(to)
	if p == nil {
		return false
	}
	return p.enqueue(raw)
}

// Stats returns a snapshot of the per-peer queue/drop/retransmit/
// reconnect counters of every sender created so far (cmd/sofnode logs it
// on shutdown).
func (t *Transport) Stats() map[types.NodeID]PeerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	senders := *t.senders.Load()
	out := make(map[types.NodeID]PeerStats, len(senders))
	for id, p := range senders {
		out[id] = p.stats()
	}
	return out
}

// SessionStats returns the inbound session counters (delivered watermark,
// duplicates, gaps, rejected frames) per sending peer.
func (t *Transport) SessionStats() map[types.NodeID]session.ReceiverStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[types.NodeID]session.ReceiverStats, len(t.recvs))
	for id, r := range t.recvs {
		out[id] = r.Stats()
	}
	return out
}

// ConnectedPeers returns the IDs of every peer this transport currently
// holds a live outbound connection to. Readiness checks count the
// process peers in it against the quorum they need.
func (t *Transport) ConnectedPeers() []types.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	senders := *t.senders.Load()
	out := make([]types.NodeID, 0, len(senders))
	for id, p := range senders {
		if p.connectedNow() {
			out = append(out, id)
		}
	}
	return out
}

// registerPeerMetrics promotes one peer sender's counters to live,
// function-backed registry series. Called once per sender, off the hot
// path; the sender's own atomics stay the single source of truth.
func (t *Transport) registerPeerMetrics(p *peer) {
	m := t.opts.Metrics
	if m == nil {
		return
	}
	labels := []obs.Label{obs.L("node", fmt.Sprint(t.id)), obs.L("peer", fmt.Sprint(p.id))}
	m.GaugeFunc("sof_peer_queue_depth", "Frames waiting in the peer's bounded send queue.",
		func() float64 { return float64(len(p.ch)) }, labels...)
	m.GaugeFunc("sof_peer_connected", "1 while an outbound connection to the peer is live.",
		func() float64 {
			if p.connectedNow() {
				return 1
			}
			return 0
		}, labels...)
	m.CounterFunc("sof_peer_queued_total", "Frames accepted into the peer's send queue.",
		func() uint64 { return p.queued.Load() }, labels...)
	m.CounterFunc("sof_peer_dropped_total", "Frames dropped because the peer's send queue was full.",
		func() uint64 { return p.dropped.Load() }, labels...)
	m.CounterFunc("sof_peer_reconnects_total", "Connections torn down after a write error and redialled.",
		func() uint64 { return p.reconnects.Load() }, labels...)
	m.CounterFunc("sof_peer_retransmitted_total", "Frames replayed from the session retransmission ring on reconnect.",
		func() uint64 { return p.tx.Stats().Retransmitted }, labels...)
	m.CounterFunc("sof_peer_session_lost_total", "Frames a session reconnect could not recover.",
		func() uint64 { return p.tx.Stats().Lost }, labels...)
}

// registerSessionMetrics promotes one inbound session receiver's
// counters to live registry series, labeled by the sending peer.
func (t *Transport) registerSessionMetrics(from types.NodeID, r *session.Receiver) {
	m := t.opts.Metrics
	if m == nil {
		return
	}
	labels := []obs.Label{obs.L("node", fmt.Sprint(t.id)), obs.L("peer", fmt.Sprint(from))}
	m.GaugeFunc("sof_session_epoch", "Sender incarnation (epoch) of the inbound session.",
		func() float64 { return float64(r.Stats().Epoch) }, labels...)
	m.GaugeFunc("sof_session_delivered", "Highest frame sequence delivered on the inbound session.",
		func() float64 { return float64(r.Stats().Delivered) }, labels...)
	m.CounterFunc("sof_session_duplicates_total", "Inbound frames dropped as already delivered.",
		func() uint64 { return r.Stats().Duplicates }, labels...)
	m.CounterFunc("sof_session_gaps_total", "Inbound frame sequences skipped as unrecoverable.",
		func() uint64 { return r.Stats().Gaps }, labels...)
	m.CounterFunc("sof_session_rejected_total", "Inbound frames and hellos refused (bad MAC or malformed).",
		func() uint64 { return r.Stats().Rejected }, labels...)
}

// BounceConns forcibly closes every live connection — inbound readers and
// outbound senders — without closing the transport, as a network fault
// would. Senders redial, handshake and replay the unacknowledged window;
// inbound session state survives, so delivery
// continuity is preserved. Reconnect and resume tests use this hook.
func (t *Transport) BounceConns() {
	t.mu.Lock()
	conns := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		conns = append(conns, c)
	}
	senders := *t.senders.Load() // never written again once published
	t.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	for _, p := range senders {
		p.dropCurrentConn()
	}
}

// lookupReceiver returns the session receiver for from, if one exists.
func (t *Transport) lookupReceiver(from types.NodeID) (*session.Receiver, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.recvs[from]
	return r, ok
}

// receiver returns (creating if needed) the session receiver for frames
// sent by from. Only called for authenticated senders (see readLoop).
func (t *Transport) receiver(from types.NodeID) *session.Receiver {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.recvs[from]
	if !ok {
		r = t.opts.Session.NewReceiver(t.id, from)
		t.recvs[from] = r
		t.registerSessionMetrics(from, r)
	}
	return r
}

// sender returns (creating and starting if needed) the peer sender for to,
// or nil if the peer has no known address or the transport is closed.
func (t *Transport) sender(to types.NodeID) *peer {
	if p := (*t.senders.Load())[to]; p != nil && !t.closed.Load() {
		return p
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return nil
	}
	senders := *t.senders.Load()
	if p, ok := senders[to]; ok {
		return p
	}
	addr, known := t.peers[to]
	if !known {
		// Log the misconfiguration once, not at wire rate.
		if _, logged := t.unknownLogged[to]; !logged {
			t.unknownLogged[to] = struct{}{}
			t.logger.Printf("tcpnet %v: no address for peer %v; dropping its frames", t.id, to)
		}
		return nil
	}
	p := newPeer(t.id, to, addr, t.opts, t.logger)
	published := maps.Clone(senders)
	published[to] = p
	t.senders.Store(&published)
	t.registerPeerMetrics(p)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		p.run()
	}()
	return p
}

// acceptLoop serves the listener, handing each connection's read loop the
// handler Start was given (loaded once here, not per frame under mu).
func (t *Transport) acceptLoop(h Handler) {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if !t.closed.Load() {
				select {
				case t.fatal <- fmt.Errorf("tcpnet %v: accept on %s: %w", t.id, t.Addr(), err):
				default:
				}
			}
			return
		}
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		if t.opts.TLSServer != nil {
			// The handshake runs lazily on the first read; the hello
			// deadline in readLoop bounds it like any other slow client.
			conn = tls.Server(conn, t.opts.TLSServer)
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.readLoop(conn, h)
		}()
	}
}

// readLoop consumes one inbound connection: the authenticated hello/ack
// exchange, then frames, each opened and handed to h as a slice of the
// connection's current receive chunk (see chunkReader).
func (t *Transport) readLoop(conn net.Conn, h Handler) {
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
		_ = conn.Close()
	}()
	// A connection that never identifies itself must not pin a goroutine
	// and a receive chunk forever (port scans, TCP health probes).
	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
	cr := newChunkReader(conn)
	hello, err := cr.next()
	if err != nil {
		return
	}
	from, hto, err := session.ParseHello(hello)
	if err != nil || hto != t.id {
		t.logger.Printf("tcpnet %v: rejecting connection from %s: malformed session hello", t.id, conn.RemoteAddr())
		return
	}
	// Authenticate the claimed sender before allocating anything keyed by
	// it: forged hellos must not grow the receiver map (or the link-key
	// cache) — CheckHello is stateless.
	if _, ok := t.lookupReceiver(from); !ok {
		if err := t.opts.Session.CheckHello(t.id, hello); err != nil {
			t.logger.Printf("tcpnet %v: rejecting connection claiming %v from %s: %v", t.id, from, conn.RemoteAddr(), err)
			return
		}
	}
	rx := t.receiver(from)
	if err := rx.VerifyHello(hello); err != nil {
		t.logger.Printf("tcpnet %v: rejecting connection claiming %v from %s: %v", t.id, from, conn.RemoteAddr(), err)
		if errors.Is(err, session.ErrStaleEpoch) {
			// Answer with the current ack anyway (authenticated, so
			// harmless to a replayer): a genuine sender whose clock
			// regressed across a restart learns the epoch to adopt and
			// succeeds on its next redial.
			_, _ = conn.Write(AppendFrame(nil, rx.Ack()))
		}
		return
	}
	// The ack carries the delivery watermark a resuming sender replays
	// from.
	if _, err := conn.Write(AppendFrame(nil, rx.Ack())); err != nil {
		return
	}
	_ = conn.SetReadDeadline(time.Time{}) // frames may be arbitrarily far apart
	for {
		raw, err := cr.next()
		if err != nil {
			// A clean shutdown closes inbound conns under us; that is not
			// an operator-visible link failure.
			if !t.closed.Load() && err != io.EOF && !errors.Is(err, net.ErrClosed) {
				t.logger.Printf("tcpnet %v: read from %v (%s): %v", t.id, from, conn.RemoteAddr(), err)
			}
			return
		}
		body, err := rx.Open(raw)
		if err != nil {
			// Tampered or corrupt stream: the frame never reaches protocol
			// code, and the connection is dropped (a legitimate sender
			// redials and resumes).
			t.logger.Printf("tcpnet %v: rejecting frame from %v (%s): %v", t.id, from, conn.RemoteAddr(), err)
			return
		}
		if body == nil {
			continue // duplicate of an already-delivered frame
		}
		if t.closed.Load() {
			return
		}
		if h != nil {
			h(from, body)
		}
	}
}
