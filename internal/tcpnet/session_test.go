package tcpnet

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/session"
	"github.com/sof-repro/sof/internal/types"
)

func sessionConfig() *session.Config {
	return &session.Config{Keys: crypto.NewLinkKeys([]byte("tcpnet-test"))}
}

// TestSessionDelivery checks authenticated end-to-end delivery: framed
// hello/ack handshake, sealed frames, correct sender attribution.
func TestSessionDelivery(t *testing.T) {
	cfg := sessionConfig()
	a, _ := listenT(t, 0, Options{Session: cfg})
	b, bch := listenT(t, 1, Options{Session: cfg})
	a.SetPeers(map[types.NodeID]string{1: b.Addr()})

	const n = 50
	for i := 0; i < n; i++ {
		if !a.Send(1, []byte{byte(i), 0x5e}) {
			t.Fatalf("send %d dropped", i)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case f := <-bch:
			if f.from != 0 || f.raw[0] != byte(i) || f.raw[1] != 0x5e {
				t.Fatalf("frame %d: from=%v raw=%v", i, f.from, f.raw)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d not delivered", i)
		}
	}
	if st := b.SessionStats()[0]; st.Delivered != n || st.Rejected != 0 || st.Gaps != 0 {
		t.Errorf("receiver session stats %+v", st)
	}
	awaitSent(t, a, 1, n)
}

// TestClientHandshakeTimeout checks the dial-side session handshake — the
// only one there is; a client endpoint dials through it like any peer —
// gives up, with an error naming the peer and its address, against a
// listener that accepts but never answers the hello.
func TestClientHandshakeTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // read nothing, ack nothing
		}
	}()

	addr := ln.Addr().String()
	opts := Options{Session: sessionConfig(), HandshakeTimeout: 200 * time.Millisecond}.withDefaults()
	p := newPeer(types.ClientID(0), 0, addr, opts, quietLogger())
	start := time.Now()
	conn, _, err := p.dial()
	if err == nil {
		conn.Close()
		t.Fatal("handshake against a silent acceptor succeeded")
	}
	for _, want := range []string{"session handshake with peer n0", addr, "awaiting hello-ack"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("handshake error %q does not mention %q", err, want)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("handshake timeout took %v, want ~200ms", elapsed)
	}
}

// TestSessionRejectsBareHello pins the authentication boundary: a
// connection that opens with a bare 4-byte hello claiming a valid NodeID
// and then writes a length-prefixed frame delivers nothing, and the
// acceptor hangs up on it.
func TestSessionRejectsBareHello(t *testing.T) {
	b, bch := listenT(t, 1, Options{Session: sessionConfig()})
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello [4]byte
	binary.BigEndian.PutUint32(hello[:], uint32(int32(types.NodeID(0))))
	if _, err := conn.Write(AppendFrame(hello[:], []byte("unauthenticated"))); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-bch:
		t.Fatalf("unauthenticated frame delivered: %q from %v", f.raw, f.from)
	case <-time.After(300 * time.Millisecond):
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
		t.Errorf("acceptor kept the bare-hello connection open (read: %v)", err)
	}
}

// TestUnkeyedTransportsAreProcessLocal: Transports built without a
// Session share the key this process drew, so they speak sessions to one
// another; a Transport holding other link keys refuses their hellos and
// they refuse its, in both directions.
func TestUnkeyedTransportsAreProcessLocal(t *testing.T) {
	u0, u0ch := listenT(t, 0, Options{})
	u1, u1ch := listenT(t, 1, Options{})
	k2, k2ch := listenT(t, 2, Options{Session: sessionConfig()})
	u0.SetPeers(map[types.NodeID]string{1: u1.Addr(), 2: k2.Addr()})
	u1.SetPeers(map[types.NodeID]string{0: u0.Addr()})
	k2.SetPeers(map[types.NodeID]string{0: u0.Addr()})

	for _, dir := range []struct {
		from *Transport
		to   types.NodeID
		ch   chan sinkFrame
	}{{u0, 1, u1ch}, {u1, 0, u0ch}} {
		if !dir.from.Send(dir.to, []byte("same process")) {
			t.Fatalf("send %v->%v dropped", dir.from.ID(), dir.to)
		}
		select {
		case f := <-dir.ch:
			if f.from != dir.from.ID() || string(f.raw) != "same process" {
				t.Fatalf("%v->%v delivered %q from %v", dir.from.ID(), dir.to, f.raw, f.from)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%v->%v: frame not delivered", dir.from.ID(), dir.to)
		}
	}
	if st := u1.SessionStats()[0]; st.Delivered != 1 {
		t.Errorf("unkeyed receiver session stats %+v, want one sealed frame delivered", st)
	}

	u0.Send(2, []byte("to keyed"))
	k2.Send(0, []byte("from keyed"))
	select {
	case f := <-k2ch:
		t.Fatalf("keyed transport accepted %q from unkeyed %v", f.raw, f.from)
	case f := <-u0ch:
		t.Fatalf("unkeyed transport accepted %q from keyed %v", f.raw, f.from)
	case <-time.After(300 * time.Millisecond):
	}
	if st := u0.Stats()[2]; st.Sent != 0 {
		t.Errorf("unkeyed->keyed sender stats %+v: a frame was written", st)
	}
	if st := k2.Stats()[0]; st.Sent != 0 {
		t.Errorf("keyed->unkeyed sender stats %+v: a frame was written", st)
	}
}

// TestSessionRejectsTamperedMAC proves a tampered frame is rejected
// before it reaches protocol code: a connection that completes a genuine
// handshake but then flips one payload byte delivers nothing.
func TestSessionRejectsTamperedMAC(t *testing.T) {
	cfg := sessionConfig()
	b, bch := listenT(t, 1, Options{Session: cfg})

	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tx := cfg.NewSender(0, 1)
	if _, err := handshake(conn, tx, 5*time.Second); err != nil {
		t.Fatalf("genuine handshake failed: %v", err)
	}
	wire := tx.Seal([]byte("payload-to-tamper")).Append(nil)
	wire[session.HeaderLen] ^= 0x01 // flip the first body byte
	if _, err := conn.Write(AppendFrame(nil, wire)); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-bch:
		t.Fatalf("tampered frame reached the handler: %q", f.raw)
	case <-time.After(300 * time.Millisecond):
	}
	// The listener must also have hung up on the tampered stream.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := ReadFrame(conn); err == nil {
		t.Error("listener kept the tampered connection open")
	}
	if st := b.SessionStats()[0]; st.Rejected == 0 {
		t.Errorf("rejection not counted: %+v", st)
	}
}

// TestSessionResumeNoFrameLoss is the transport-level zero-loss proof:
// every connection is forcibly killed repeatedly while a frame stream is
// in flight, and with resume on the receiver still observes every frame
// exactly once, in order.
func TestSessionResumeNoFrameLoss(t *testing.T) {
	cfg := sessionConfig()
	opts := Options{Session: cfg, RedialMin: 5 * time.Millisecond, RedialMax: 50 * time.Millisecond}
	a, _ := listenT(t, 0, opts)
	b, bch := listenT(t, 1, opts)
	a.SetPeers(map[types.NodeID]string{1: b.Addr()})

	const n = 400
	go func() {
		for i := 0; i < n; i++ {
			for !a.Send(1, []byte{byte(i), byte(i >> 8)}) {
				time.Sleep(time.Millisecond)
			}
			if i%40 == 20 {
				// Kill every live connection on both sides mid-stream.
				a.BounceConns()
				b.BounceConns()
			}
		}
	}()
	for i := 0; i < n; i++ {
		select {
		case f := <-bch:
			got := int(f.raw[0]) | int(f.raw[1])<<8
			if got != i {
				t.Fatalf("frame %d arrived out of order (want %d): lost or duplicated across reconnect", got, i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d never delivered; sender stats %+v", i, a.Stats()[1])
		}
	}
	st := b.SessionStats()[0]
	if st.Gaps != 0 {
		t.Errorf("receiver observed %d gap(s); resume lost frames", st.Gaps)
	}
	if sent := a.Stats()[1]; sent.Retransmitted == 0 {
		t.Logf("note: no retransmissions occurred (bounces landed between batches); stats %+v", sent)
	}
}

// TestSessionRedialsWhenPeerCloses: a sender notices that its peer closed
// the connection — it watches the dial side, where the peer writes
// nothing after its hello-ack — and redials at once. So the one frame
// sent to a restarted peer arrives, with no later write to find the old
// connection dead and trigger the replay.
func TestSessionRedialsWhenPeerCloses(t *testing.T) {
	cfg := sessionConfig()
	opts := Options{Session: cfg, RedialMin: 5 * time.Millisecond, RedialMax: 50 * time.Millisecond}
	a, _ := listenT(t, 0, opts)
	b1, b1ch := listenT(t, 1, opts)
	addr := b1.Addr()
	a.SetPeers(map[types.NodeID]string{1: addr})
	if !a.Send(1, []byte("before")) {
		t.Fatal("send dropped")
	}
	select {
	case <-b1ch:
	case <-time.After(5 * time.Second):
		t.Fatal("first frame not delivered")
	}

	b1.Close()
	_, b2ch := relistenT(t, 1, addr, opts)
	if !a.Send(1, []byte("after")) {
		t.Fatal("send dropped")
	}
	for deadline := time.After(2 * time.Second); ; {
		select {
		case f := <-b2ch:
			// The restarted peer's fresh receiver acknowledges nothing,
			// so the ring's earlier frame is replayed ahead of it.
			if string(f.raw) == "after" {
				return
			}
		case <-deadline:
			t.Fatalf("the one frame sent after the peer restarted never arrived; sender stats %+v", a.Stats()[1])
		}
	}
}

// TestFramesSealedBeforeListenAreNotRetransmitted: frames sent while the
// peer is not listening yet are sealed while the dial loop backs off and
// reach the peer in the first handshake's replay. That is their first
// send, so the sender reports no retransmission.
func TestFramesSealedBeforeListenAreNotRetransmitted(t *testing.T) {
	cfg := sessionConfig()
	opts := Options{Session: cfg, RedialMin: 5 * time.Millisecond, RedialMax: 20 * time.Millisecond}
	// Bind-then-close yields an address nobody is listening on yet.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	a, _ := listenT(t, 0, opts)
	a.SetPeers(map[types.NodeID]string{1: addr})
	const n = 20
	for i := 0; i < n; i++ {
		if !a.Send(1, []byte{byte(i)}) {
			t.Fatalf("send %d dropped", i)
		}
	}
	if ln, err = net.Listen("tcp", addr); err != nil {
		t.Skipf("the peer's address was taken meanwhile: %v", err)
	}
	b, err := Listen(1, addr, nil, quietLogger(), Options{Session: cfg, Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	bch := make(chan sinkFrame, n)
	b.Start(func(from types.NodeID, raw []byte) { bch <- sinkFrame{from, raw} })
	for i := 0; i < n; i++ {
		select {
		case f := <-bch:
			if f.raw[0] != byte(i) {
				t.Fatalf("frame %d arrived where %d was due", f.raw[0], i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d not delivered; sender stats %+v", i, a.Stats()[1])
		}
	}
	awaitSent(t, a, 1, n)
	if st := a.Stats()[1]; st.Retransmitted != 0 {
		t.Errorf("sender stats %+v: frames sent for the first time counted as retransmitted", st)
	}
}

// TestWrittenFramesReplayedAreRetransmitted: frames the sender wrote to a
// connection that died before the receiver delivered any of them are
// replayed on the next connection, and each of those — not the frame that
// triggered the redial, sent for the first time in the same replay —
// counts as a retransmission. The receiver is played by hand so that the
// first connection's frames reach it and are never opened.
func TestWrittenFramesReplayedAreRetransmitted(t *testing.T) {
	cfg := sessionConfig()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	rx := cfg.NewReceiver(1, 0)
	// accept takes the sender's next connection through the receiving end
	// of the handshake: check the hello, answer with rx's ack.
	accept := func() net.Conn {
		t.Helper()
		_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
		conn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		hello, err := ReadFrame(conn)
		if err == nil {
			err = rx.VerifyHello(hello)
		}
		if err == nil {
			_, err = conn.Write(AppendFrame(nil, rx.Ack()))
		}
		if err != nil {
			t.Fatalf("receiving end of the handshake: %v", err)
		}
		return conn
	}
	a, _ := listenT(t, 0, Options{Session: cfg, RedialMin: 5 * time.Millisecond, RedialMax: 20 * time.Millisecond})
	a.SetPeers(map[types.NodeID]string{1: ln.Addr().String()})

	const n = 10
	for i := 0; i < n; i++ {
		if !a.Send(1, []byte{byte(i)}) {
			t.Fatalf("send %d dropped", i)
		}
	}
	first := accept()
	for i := 0; i < n; i++ {
		if _, err := ReadFrame(first); err != nil {
			t.Fatalf("frame %d on the first connection: %v", i, err)
		}
	}
	awaitSent(t, a, 1, n)
	if st := a.Stats()[1]; st.Retransmitted != 0 {
		t.Fatalf("sender stats %+v before any reconnect, want nothing retransmitted", st)
	}

	// Drop the connection; the next send fails on it and redials.
	a.BounceConns()
	if !a.Send(1, []byte{n}) {
		t.Fatal("send after the bounce dropped")
	}
	second := accept()
	for i := 0; i <= n; i++ {
		raw, err := ReadFrame(second)
		if err != nil {
			t.Fatalf("frame %d on the second connection: %v", i, err)
		}
		body, err := rx.Open(raw)
		if err != nil || len(body) != 1 || body[0] != byte(i) {
			t.Fatalf("frame %d on the second connection opened to %v (err %v)", i, body, err)
		}
	}
	awaitSent(t, a, 1, n+1)
	if st := a.Stats()[1]; st.Retransmitted != n {
		t.Errorf("sender stats %+v, want the %d frames written before the bounce retransmitted", st, n)
	}
}

// TestSessionSenderRestartRejoins pins the restart path the epoch exists
// for: a transport that dies and comes back (fresh senders, sequences
// starting over) must re-establish authenticated sessions against peers
// still holding its previous incarnation's delivery state.
func TestSessionSenderRestartRejoins(t *testing.T) {
	cfg := sessionConfig()
	opts := Options{Session: cfg, RedialMin: 5 * time.Millisecond, RedialMax: 50 * time.Millisecond}
	b, bch := listenT(t, 1, opts)

	a1, _ := listenT(t, 0, opts)
	a1.SetPeers(map[types.NodeID]string{1: b.Addr()})
	if !a1.Send(1, []byte("first life")) {
		t.Fatal("send dropped")
	}
	select {
	case <-bch:
	case <-time.After(5 * time.Second):
		t.Fatal("pre-restart frame not delivered")
	}
	a1.Close()

	// Restart: a new transport for the same NodeID and session config.
	a2, _ := listenT(t, 0, opts)
	a2.SetPeers(map[types.NodeID]string{1: b.Addr()})
	if !a2.Send(1, []byte("second life")) {
		t.Fatal("post-restart send dropped")
	}
	select {
	case f := <-bch:
		if string(f.raw) != "second life" {
			t.Fatalf("got %q after restart", f.raw)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("restarted sender never re-established its session; stats %+v", a2.Stats()[1])
	}
}

// TestSessionForgedHelloFloodBoundsState checks an unauthenticated
// attacker cycling claimed sender IDs cannot grow the listener's
// per-sender session state: forged hellos are rejected before any
// receiver is allocated.
func TestSessionForgedHelloFloodBoundsState(t *testing.T) {
	b, _ := listenT(t, 1, Options{Session: sessionConfig()})
	forger := &session.Config{Keys: crypto.NewLinkKeys([]byte("wrong-master"))}
	for i := 0; i < 50; i++ {
		conn, err := net.Dial("tcp", b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		hello := forger.NewSender(types.NodeID(1000+i), 1).Hello()
		_, _ = conn.Write(AppendFrame(nil, hello))
		_ = conn.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if n := len(b.SessionStats()); n != 0 {
			t.Fatalf("%d forged sender IDs allocated receiver state", n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSessionOversizedSendDropped checks a frame that cannot fit the wire
// (body + session overhead > MaxFrame) is refused at Send instead of
// poisoning the peer queue and, with resume, the retransmission ring.
func TestSessionOversizedSendDropped(t *testing.T) {
	cfg := sessionConfig()
	a, _ := listenT(t, 0, Options{Session: cfg})
	b, bch := listenT(t, 1, Options{Session: cfg})
	a.SetPeers(map[types.NodeID]string{1: b.Addr()})

	if a.Send(1, make([]byte, MaxFrame-session.Overhead+1)) {
		t.Error("oversized frame accepted into the peer queue")
	}
	// The link must still work for ordinary traffic afterwards.
	if !a.Send(1, []byte("still alive")) {
		t.Fatal("normal frame dropped after oversized rejection")
	}
	select {
	case f := <-bch:
		if string(f.raw) != "still alive" {
			t.Fatalf("got %q", f.raw)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("link wedged after an oversized Send")
	}
}

// TestSessionShortRingBatchIntact is the Seal slab's transport-side
// contract: the sender seals a whole writev batch before writing it, so a
// retransmission ring configured shorter than MaxBatch must not let a late
// frame of the batch rewrite an early one's header and MAC. A shaped 2 ms
// per write keeps the queue full, so batches run at MaxBatch against a
// ring of 4; every frame must still authenticate.
func TestSessionShortRingBatchIntact(t *testing.T) {
	cfg := sessionConfig()
	cfg.RingLen = 4
	slow := func(types.NodeID, int) (time.Duration, bool) { return 2 * time.Millisecond, true }
	a, _ := listenT(t, 0, Options{Session: cfg, Shape: slow})
	b, bch := listenT(t, 1, Options{Session: cfg})
	a.SetPeers(map[types.NodeID]string{1: b.Addr()})

	const n = 600
	for i := 0; i < n; i++ {
		if !a.Send(1, []byte{byte(i), byte(i >> 8)}) {
			t.Fatalf("send %d dropped", i)
		}
		if i == 0 {
			// The first frame travels in the handshake's replay; the batches
			// this test is about need the connection up.
			select {
			case <-bch:
			case <-time.After(5 * time.Second):
				t.Fatal("first frame not delivered")
			}
		}
	}
	for i := 1; i < n; i++ {
		select {
		case f := <-bch:
			if got := int(f.raw[0]) | int(f.raw[1])<<8; got != i {
				t.Fatalf("frame %d arrived where %d was due", got, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d not delivered (receiver stats %+v)", i, b.SessionStats()[0])
		}
	}
	if st := b.SessionStats()[0]; st.Rejected != 0 || st.Gaps != 0 {
		t.Errorf("receiver session stats %+v: a batch frame failed to authenticate", st)
	}
}
