package tcpnet

import (
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sof-repro/sof/internal/session"
	"github.com/sof-repro/sof/internal/types"
)

// errLinkCut reports a send refused by the Shape hook: the modelled link
// is currently severed.
var errLinkCut = errors.New("tcpnet: link is cut (shaped)")

// PeerStats reports one peer sender's queue, drop, retransmission and
// reconnect counters.
type PeerStats struct {
	// Queued counts frames accepted into the peer's bounded send queue.
	Queued uint64
	// Sent counts queued frames that have been written to a live
	// connection at least once (with sessions: written, or replayed by
	// the handshake that followed their sealing). Queued - Sent frames
	// are still waiting for the link; a plain-frame batch abandoned on a
	// write error is never counted.
	Sent uint64
	// Dropped counts frames discarded because the peer's bounded send
	// queue was full (backpressure from a slow or unreachable peer).
	Dropped uint64
	// Retransmitted counts frames replayed from the session ring after a
	// reconnect that had already been written to a connection, or that a
	// previous incarnation may have sent (always 0 without sessions or
	// with resume off). Frames sealed before the first connection came up
	// reach the peer in its handshake's replay and are not counted.
	Retransmitted uint64
	// SessionLost counts frames a session reconnect could not recover
	// (evicted from the retransmission ring, or resume disabled).
	SessionLost uint64
	// Reconnects counts connections torn down after a write error and
	// redialled.
	Reconnects uint64
}

// peer owns the outbound path to one remote: a bounded frame queue drained
// by a dedicated sender goroutine that coalesces frames into writev calls
// and redials dead connections with jittered exponential backoff.
//
// The queue bound is the backpressure contract: enqueue never blocks the
// caller (a protocol event loop), and a peer that stops reading costs the
// sender at most QueueLen retained frames before new ones are dropped.
//
// With sessions enabled the sender additionally seals every frame
// (sequence number + HMAC trailer) and keeps the sealed frames in the
// session's retransmission ring; a reconnect handshakes, learns what the
// peer delivered, and replays the gap before sending anything new.
type peer struct {
	self, id types.NodeID
	addr     string
	opts     Options
	logger   *log.Logger

	// tx is the session sender for this direction (nil when sessions are
	// off). It is owned by the run goroutine; only Stats reads it from
	// outside.
	tx *session.Sender
	// wbufs is the run goroutine's writev argument (see writeFrames).
	wbufs net.Buffers

	ch   chan []byte
	stop chan struct{}
	once sync.Once

	// connMu guards conn/closed so close() can interrupt a sender blocked
	// mid-write (closing the conn fails the write and unblocks it).
	connMu sync.Mutex
	conn   net.Conn
	closed bool

	queued     atomic.Uint64
	sent       atomic.Uint64
	dropped    atomic.Uint64
	reconnects atomic.Uint64
}

func newPeer(self, id types.NodeID, addr string, opts Options, logger *log.Logger) *peer {
	p := &peer{
		self:   self,
		id:     id,
		addr:   addr,
		opts:   opts,
		logger: logger,
		ch:     make(chan []byte, opts.QueueLen),
		stop:   make(chan struct{}),
	}
	if opts.Session != nil {
		p.tx = opts.Session.NewSender(self, id)
		// run seals up to MaxBatch frames before it writes them.
		p.tx.Reserve(opts.MaxBatch)
	}
	return p
}

// enqueue hands raw to the sender without copying; raw must be immutable
// (the cached wire encoding is). It reports false if the frame was dropped
// because the queue is full.
func (p *peer) enqueue(raw []byte) bool {
	select {
	case p.ch <- raw:
		p.queued.Add(1)
		return true
	default:
		p.dropped.Add(1)
		return false
	}
}

// close stops the sender. It also closes the in-flight connection: a
// sender blocked in a write against a wedged peer (full TCP send window)
// must be unblocked, or Transport.Close would hang in wg.Wait.
func (p *peer) close() {
	p.once.Do(func() {
		close(p.stop)
		p.connMu.Lock()
		p.closed = true
		if p.conn != nil {
			_ = p.conn.Close()
		}
		p.connMu.Unlock()
	})
}

// adoptConn registers the sender's active connection for close(); it
// reports false (closing c) if the peer was closed concurrently.
func (p *peer) adoptConn(c net.Conn) bool {
	p.connMu.Lock()
	defer p.connMu.Unlock()
	if p.closed {
		_ = c.Close()
		return false
	}
	p.conn = c
	return true
}

// connectedNow reports whether an outbound connection is currently
// live. Scrape-time only.
func (p *peer) connectedNow() bool {
	p.connMu.Lock()
	defer p.connMu.Unlock()
	return p.conn != nil && !p.closed
}

func (p *peer) dropCurrentConn() {
	p.connMu.Lock()
	if p.conn != nil {
		_ = p.conn.Close()
		p.conn = nil
	}
	p.connMu.Unlock()
}

func (p *peer) stats() PeerStats {
	ps := PeerStats{
		Queued:     p.queued.Load(),
		Sent:       p.sent.Load(),
		Dropped:    p.dropped.Load(),
		Reconnects: p.reconnects.Load(),
	}
	if p.tx != nil {
		st := p.tx.Stats()
		ps.Retransmitted = st.Retransmitted
		ps.SessionLost = st.Lost
	}
	return ps
}

func (p *peer) isClosed() bool {
	p.connMu.Lock()
	defer p.connMu.Unlock()
	return p.closed
}

// dial opens a connection to the peer and identifies this endpoint on it:
// the bare v1 hello, or — with sessions — the authenticated hello/ack
// handshake, whose ack yields the frames to replay before new traffic.
// Errors name the peer and its address so operators can tell which link
// is failing.
func (p *peer) dial() (net.Conn, []session.Frame, error) {
	if p.opts.Shape != nil {
		if _, ok := p.opts.Shape(p.id, 0); !ok {
			return nil, nil, fmt.Errorf("dial peer %v (%s): %w", p.id, p.addr, errLinkCut)
		}
	}
	c, err := net.DialTimeout("tcp", p.addr, p.opts.DialTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("dial peer %v (%s): %w", p.id, p.addr, err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // the sender already coalesces; don't let the kernel re-delay
	}
	if p.opts.TLSClient != nil {
		// Handshake eagerly under the dial deadline so a broken TLS
		// endpoint surfaces here — as a dial error with backoff — rather
		// than as a mid-stream write failure.
		tc := tls.Client(c, p.opts.TLSClient)
		_ = tc.SetDeadline(time.Now().Add(p.opts.DialTimeout))
		if err := tc.Handshake(); err != nil {
			_ = tc.Close()
			return nil, nil, fmt.Errorf("tls handshake with peer %v (%s): %w", p.id, p.addr, err)
		}
		_ = tc.SetDeadline(time.Time{})
		c = tc
	}
	if p.tx == nil {
		var hello [4]byte
		binary.BigEndian.PutUint32(hello[:], uint32(int32(p.self)))
		if _, err := c.Write(hello[:]); err != nil {
			_ = c.Close()
			return nil, nil, fmt.Errorf("hello to peer %v (%s): %w", p.id, p.addr, err)
		}
		return c, nil, nil
	}
	replay, err := handshake(c, p.tx, p.opts.HandshakeTimeout)
	if err != nil {
		_ = c.Close()
		return nil, nil, fmt.Errorf("session handshake with peer %v (%s): %w", p.id, p.addr, err)
	}
	if lost := p.tx.Stats().Lost; lost > 0 {
		p.logger.Printf("tcpnet %v: session to peer %v: %d frame(s) total lost beyond the retransmission ring", p.self, p.id, lost)
	}
	return c, replay, nil
}

// handshake runs the dial-side session handshake on c: send the
// authenticated hello, await the authenticated ack (bounded by timeout),
// and compute the resume replay.
func handshake(c net.Conn, tx *session.Sender, timeout time.Duration) ([]session.Frame, error) {
	_ = c.SetDeadline(time.Now().Add(timeout))
	defer c.SetDeadline(time.Time{})
	if _, err := c.Write(AppendFrame(nil, tx.Hello())); err != nil {
		return nil, fmt.Errorf("hello: %w", err)
	}
	ack, err := ReadFrame(c)
	if err != nil {
		return nil, fmt.Errorf("awaiting hello-ack: %w", err)
	}
	replay, _, err := tx.HandleAck(ack)
	if err != nil {
		return nil, err
	}
	return replay, nil
}

// run is the sender loop. It blocks for the first queued frame, then
// drains up to MaxBatch-1 more without blocking and writes the whole batch
// — length prefixes and payloads gathered — with one writev syscall. With
// sessions, each drained frame is sealed (in order, by this goroutine)
// *before* any connection is required — sealing journals the frame when a
// durability journal is configured, so frames bound for an unreachable
// peer are crash-safe while the dial loop backs off — and a reconnect
// replays the unacknowledged window immediately instead of waiting for
// new traffic.
func (p *peer) run() {
	var conn net.Conn
	defer p.dropCurrentConn()
	rng := rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(p.id)<<20 ^ int64(p.self)))
	backoff := p.opts.RedialMin
	pending := make([][]byte, 0, p.opts.MaxBatch)
	frames := make([]session.Frame, 0, p.opts.MaxBatch)
	hdrs := make([]byte, frameHeaderLen*p.opts.MaxBatch)
	vecs := make([][]byte, 0, 4*p.opts.MaxBatch)
	// unsent counts frames taken off the queue and not yet written to a
	// live connection; it moves into p.sent when they are.
	unsent := 0

	// sleep waits out the current backoff step; false means stop.
	sleep := func() bool {
		select {
		case <-time.After(jitter(rng, backoff)):
		case <-p.stop:
			return false
		}
		backoff *= 2
		if backoff > p.opts.RedialMax {
			backoff = p.opts.RedialMax
		}
		return true
	}
	// drainSeal seals (and, with a journal, persists) everything queued
	// for an unreachable peer, so frames keep becoming replayable — and
	// crash-safe — while the dial loop backs off. Only meaningful with
	// sessions; order is preserved because the caller has already sealed
	// everything it drained before calling connect.
	drainSeal := func() {
		if p.tx == nil {
			return
		}
		for {
			select {
			case raw := <-p.ch:
				p.tx.Seal(raw)
				unsent++
			default:
				return
			}
		}
	}
	// connect dials (and, with sessions, handshakes and replays) until a
	// connection is live; nil means the peer was closed.
	connect := func() net.Conn {
		for {
			drainSeal()
			c, replay, err := p.dial()
			if err != nil {
				p.logger.Printf("tcpnet %v: %v (retrying in ~%v)", p.self, err, backoff)
				if !sleep() {
					return nil
				}
				continue
			}
			if !p.adoptConn(c) {
				return nil // closed while dialling
			}
			if len(replay) > 0 {
				if err := p.writeFrames(c, replay, hdrs, &vecs); err != nil {
					p.reconnects.Add(1)
					if !p.isClosed() {
						p.logger.Printf("tcpnet %v: replay to peer %v (%s): %v; reconnecting", p.self, p.id, p.addr, err)
					}
					p.dropCurrentConn()
					if !sleep() {
						return nil
					}
					continue
				}
			}
			backoff = p.opts.RedialMin
			return c
		}
	}

	// A sender recovered from a durability journal holds a dead
	// incarnation's unacknowledged frames: connect — whose handshake
	// computes and writes the replay — now, rather than waiting for new
	// outbound traffic to trigger the first dial.
	if p.tx != nil && p.tx.NeedsReplay() {
		if conn = connect(); conn == nil {
			return
		}
		p.sent.Add(uint64(unsent)) // what connect drained and replayed
		unsent = 0
	}

	for {
		select {
		case raw := <-p.ch:
			pending = append(pending, raw)
		case <-p.stop:
			return
		}
	coalesce:
		for len(pending) < p.opts.MaxBatch {
			select {
			case raw := <-p.ch:
				pending = append(pending, raw)
			default:
				break coalesce
			}
		}
		unsent += len(pending)
		if p.tx != nil {
			// Seal — and, with a journal, persist — before any connection
			// is required: a frame is replayable (and crash-safe) from the
			// moment it is sealed, so an unreachable peer costs nothing
			// but ring slots while the dial loop backs off.
			frames = frames[:0]
			for _, raw := range pending {
				frames = append(frames, p.tx.Seal(raw))
			}
			for i := range pending {
				pending[i] = nil // release payload references while idle
			}
			pending = pending[:0]
			if conn == nil {
				// connect's handshake learns the peer's delivery watermark
				// and replays everything unacknowledged — including the
				// frames just sealed — so they must not be written twice.
				if conn = connect(); conn == nil {
					return
				}
			} else if err := p.writeFrames(conn, frames, hdrs, &vecs); err != nil {
				// The sealed frames sit in the retransmission ring;
				// reconnect now and replay them rather than waiting for
				// new traffic to trigger the redial.
				p.reconnects.Add(1)
				if !p.isClosed() {
					p.logger.Printf("tcpnet %v: write to peer %v (%s): %v; reconnecting", p.self, p.id, p.addr, err)
				}
				p.dropCurrentConn()
				if conn = connect(); conn == nil {
					return
				}
			}
			// Everything sealed so far has now been written or replayed.
			p.sent.Add(uint64(unsent))
			unsent = 0
			for i := range frames {
				frames[i] = session.Frame{} // the ring keeps its own references
			}
			continue
		}
		// Plain v1 path: the batch exists nowhere but here, so a
		// connection comes first and a failed write abandons it — after a
		// partial write the stream framing is unknown, so resending could
		// corrupt it, and the asynchronous model tolerates the loss.
		if conn == nil {
			if conn = connect(); conn == nil {
				return
			}
		}
		vecs = vecs[:0]
		size := 0
		for i, raw := range pending {
			h := hdrs[i*frameHeaderLen : (i+1)*frameHeaderLen]
			putFrameHeader(h, len(raw))
			vecs = append(vecs, h, raw)
			size += len(raw)
		}
		err := p.shapeWait(size)
		if err == nil {
			p.wbufs = vecs
			_, err = p.wbufs.WriteTo(conn)
		}
		if err != nil {
			p.reconnects.Add(1)
			if !p.isClosed() {
				p.logger.Printf("tcpnet %v: write to peer %v (%s): %v; reconnecting", p.self, p.id, p.addr, err)
			}
			p.dropCurrentConn()
			conn = nil
		} else {
			p.sent.Add(uint64(unsent))
		}
		unsent = 0
		for i := range pending {
			pending[i] = nil // release payload references while idle
		}
		pending = pending[:0]
	}
}

// shapeWait imposes the Shape hook's modelled link delay for a write of
// size bytes, interruptibly. It returns errLinkCut when the link is
// severed and net.ErrClosed when the peer is stopping.
func (p *peer) shapeWait(size int) error {
	if p.opts.Shape == nil {
		return nil
	}
	d, ok := p.opts.Shape(p.id, size)
	if !ok {
		return errLinkCut
	}
	if d <= 0 {
		return nil
	}
	select {
	case <-time.After(d):
		return nil
	case <-p.stop:
		return net.ErrClosed
	}
}

// writeFrames writes sealed session frames — length prefix, session
// header, body and MAC gathered per frame — in MaxBatch-sized writev
// calls.
func (p *peer) writeFrames(conn net.Conn, frames []session.Frame, hdrs []byte, vecs *[][]byte) error {
	for len(frames) > 0 {
		n := len(frames)
		if n > p.opts.MaxBatch {
			n = p.opts.MaxBatch
		}
		v := (*vecs)[:0]
		size := 0
		for i, f := range frames[:n] {
			h := hdrs[i*frameHeaderLen : (i+1)*frameHeaderLen]
			putFrameHeader(h, f.WireLen())
			v = append(v, h, f.Hdr, f.Body, f.MAC)
			size += f.WireLen()
		}
		if err := p.shapeWait(size); err != nil {
			*vecs = v[:0]
			return err
		}
		// WriteTo has a pointer receiver and consumes the value it is
		// called on; a local would be heap-allocated on every writev.
		p.wbufs = v
		written, err := p.wbufs.WriteTo(conn)
		*vecs = v[:0]
		// A frame is written once all of its bytes are; only a replay of
		// it after that is a retransmission.
		for _, f := range frames[:n] {
			if written -= int64(frameHeaderLen + f.WireLen()); written < 0 {
				break
			}
			p.tx.Wrote(f.Seq)
		}
		if err != nil {
			return err
		}
		frames = frames[n:]
	}
	return nil
}

// jitter spreads a backoff delay over [d/2, d) so restarted peers are not
// redialled by every node in lockstep.
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)))
}
