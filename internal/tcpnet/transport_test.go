package tcpnet

import (
	"bytes"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/types"
)

type sinkFrame struct {
	from types.NodeID
	raw  []byte
}

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// listenT binds a transport on loopback and registers cleanup.
func listenT(t *testing.T, id types.NodeID, opts Options) (*Transport, chan sinkFrame) {
	t.Helper()
	tr, err := Listen(id, "127.0.0.1:0", nil, quietLogger(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	ch := make(chan sinkFrame, 4096)
	tr.Start(func(from types.NodeID, raw []byte) {
		select {
		case ch <- sinkFrame{from, raw}:
		default:
		}
	})
	return tr, ch
}

// awaitSent waits for tr's sender to peer to report every queued frame
// written; the counter moves just after the write the receiver observes.
func awaitSent(t *testing.T, tr *Transport, peer types.NodeID, want uint64) {
	t.Helper()
	var st PeerStats
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st = tr.Stats()[peer]; st.Sent == want && st.Queued == want {
			return
		}
	}
	t.Fatalf("peer %v stats %+v, want %d queued and sent", peer, st, want)
}

// TestClientDialFailure checks what an endpoint — a client is a transport
// like any other — sees of an unreachable node: the frame is queued, never
// reported sent, and the dial failure is logged naming the peer and its
// address.
func TestClientDialFailure(t *testing.T) {
	// Bind-then-close yields an address nobody is listening on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var logs syncBuffer
	tr, err := Listen(types.ClientID(0), "127.0.0.1:0", map[types.NodeID]string{0: addr},
		log.New(&logs, "", 0), Options{RedialMin: time.Millisecond, RedialMax: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Start(func(types.NodeID, []byte) {})
	if !tr.Send(0, []byte("nobody home")) {
		t.Fatal("Send refused a frame for a known peer")
	}
	want := "dial peer n0 (" + addr + ")"
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(logs.String(), want); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("dial failure not logged with peer and address %q:\n%s", want, logs.String())
		}
	}
	if st := tr.Stats()[0]; st.Queued != 1 || st.Sent != 0 {
		t.Errorf("stats through a closed port: %+v, want 1 queued, 0 sent", st)
	}
}

// syncBuffer is a log sink the test reads while sender goroutines write.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestTransportDelivery checks framed delivery, sender identification, and
// that fan-out shares one payload slice across peers without mutation.
func TestTransportDelivery(t *testing.T) {
	a, _ := listenT(t, 0, Options{})
	b, bch := listenT(t, 1, Options{})
	c, cch := listenT(t, 2, Options{})
	a.SetPeers(map[types.NodeID]string{1: b.Addr(), 2: c.Addr()})

	payload := []byte("the quick brown fox")
	for _, to := range []types.NodeID{1, 2} {
		if !a.Send(to, payload) {
			t.Fatalf("Send to %v rejected", to)
		}
	}
	for _, ch := range []chan sinkFrame{bch, cch} {
		select {
		case f := <-ch:
			if f.from != 0 {
				t.Errorf("frame attributed to %v, want n0", f.from)
			}
			if !bytes.Equal(f.raw, payload) {
				t.Errorf("payload corrupted: %q", f.raw)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("frame not delivered within 5s")
		}
	}
	if !bytes.Equal(payload, []byte("the quick brown fox")) {
		t.Error("fan-out mutated the shared payload slice")
	}
}

// TestTransportCoalescesFrames sends a burst and checks every frame
// arrives intact and in order per sender (the writev batching must
// preserve framing).
func TestTransportCoalescesFrames(t *testing.T) {
	a, _ := listenT(t, 0, Options{MaxBatch: 8})
	b, bch := listenT(t, 1, Options{})
	a.SetPeers(map[types.NodeID]string{1: b.Addr()})

	const n = 200
	for i := 0; i < n; i++ {
		if !a.Send(1, []byte{byte(i), byte(i >> 8), 0xab}) {
			t.Fatalf("send %d dropped", i)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case f := <-bch:
			if f.raw[0] != byte(i) || f.raw[1] != byte(i>>8) || f.raw[2] != 0xab {
				t.Fatalf("frame %d out of order or corrupted: %v", i, f.raw)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d not delivered (got %d)", i, i)
		}
	}
	awaitSent(t, a, 1, n)
}

// TestSlowPeerBackpressure checks the backpressure contract: a peer that
// stops reading costs the sender a bounded queue and then drops — the
// sending side never blocks — while traffic to healthy peers is
// unaffected.
func TestSlowPeerBackpressure(t *testing.T) {
	// The slow peer accepts connections and never reads from them.
	slow, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	go func() {
		for {
			conn, err := slow.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, read nothing
		}
	}()

	a, _ := listenT(t, 0, Options{QueueLen: 8, MaxBatch: 4})
	b, bch := listenT(t, 1, Options{})
	a.SetPeers(map[types.NodeID]string{1: b.Addr(), 2: slow.Addr().String()})

	// Saturate the slow peer: big frames fill its kernel socket buffers,
	// its sender blocks mid-writev, the bounded queue fills, and further
	// frames are dropped — all without ever blocking this goroutine.
	big := make([]byte, 256<<10)
	start := time.Now()
	const frames = 256
	for i := 0; i < frames; i++ {
		a.Send(2, big) // must never block
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sends blocked on the slow peer: %v for %d frames", elapsed, frames)
	}
	if d := a.Stats()[2].Dropped; d == 0 {
		t.Error("slow peer's bounded queue never dropped; backpressure bound not enforced")
	}

	// The healthy peer must keep flowing while the slow peer is wedged. A
	// transient queue-full (the sender draining a burst) may defer an
	// enqueue but must never wedge it.
	for i := 0; i < frames; i++ {
		ok := false
		for tries := 0; tries < 1000 && !ok; tries++ {
			if ok = a.Send(1, []byte{byte(i)}); !ok {
				time.Sleep(time.Millisecond)
			}
		}
		if !ok {
			t.Fatalf("healthy peer never accepted frame %d while slow peer stalled", i)
		}
	}
	for i := 0; i < frames; i++ {
		select {
		case f := <-bch:
			if f.raw[0] != byte(i) {
				t.Fatalf("healthy peer frame %d corrupted", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("healthy peer starved at frame %d while slow peer stalled", i)
		}
	}
}

// TestCloseUnblocksWedgedSender pins the shutdown contract: Close must
// return promptly even when a peer sender is blocked mid-write against a
// peer whose TCP receive window is full (closing the connection fails the
// write and unblocks the sender).
func TestCloseUnblocksWedgedSender(t *testing.T) {
	slow, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	go func() {
		for {
			conn, err := slow.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never read
		}
	}()

	a, err := Listen(0, "127.0.0.1:0", map[types.NodeID]string{2: slow.Addr().String()},
		quietLogger(), Options{QueueLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	a.Start(func(types.NodeID, []byte) {})
	big := make([]byte, 1<<20)
	for i := 0; i < 64; i++ {
		a.Send(2, big) // wedges the sender once kernel buffers fill
	}
	time.Sleep(200 * time.Millisecond) // let the sender block in the write

	done := make(chan struct{})
	go func() {
		a.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a sender blocked against a wedged peer")
	}
}

// TestReconnectAfterPeerRestart kills a peer's transport, restarts it on
// the same address, and checks the sender redials and delivers again.
func TestReconnectAfterPeerRestart(t *testing.T) {
	a, _ := listenT(t, 0, Options{RedialMin: 10 * time.Millisecond, RedialMax: 100 * time.Millisecond})
	b1, b1ch := listenT(t, 1, Options{})
	addr := b1.Addr()
	a.SetPeers(map[types.NodeID]string{1: addr})

	if !a.Send(1, []byte("before")) {
		t.Fatal("initial send dropped")
	}
	select {
	case f := <-b1ch:
		if string(f.raw) != "before" {
			t.Fatalf("got %q", f.raw)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("initial frame not delivered")
	}

	b1.Close()

	// Restart the peer on the same address (retry briefly: the port may
	// linger for a moment after close).
	var b2 *Transport
	var err error
	for deadline := time.Now().Add(5 * time.Second); ; {
		b2, err = Listen(1, addr, nil, quietLogger(), Options{})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer b2.Close()
	b2ch := make(chan sinkFrame, 64)
	b2.Start(func(from types.NodeID, raw []byte) {
		select {
		case b2ch <- sinkFrame{from, raw}:
		default:
		}
	})

	// Keep sending until the redialled connection delivers. Early frames
	// may be lost with the torn-down connection; the protocols tolerate
	// that, the transport must recover.
	deadline := time.Now().Add(10 * time.Second)
	for {
		a.Send(1, []byte("after"))
		select {
		case f := <-b2ch:
			if f.from != 0 || string(f.raw) != "after" {
				t.Fatalf("unexpected frame %v %q after restart", f.from, f.raw)
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("no delivery after peer restart; stats: %+v", a.Stats()[1])
		}
	}
}

// TestFatalSurfacesListenerLoss checks that losing the listener while
// serving reports exactly one fatal error (the cmd/sofnode exit path).
func TestFatalSurfacesListenerLoss(t *testing.T) {
	tr, err := Listen(0, "127.0.0.1:0", nil, quietLogger(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Start(func(types.NodeID, []byte) {})
	_ = tr.ln.Close() // simulate the listener dying out from under us
	select {
	case err := <-tr.Fatal():
		if err == nil {
			t.Fatal("nil fatal error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("listener loss did not surface on Fatal()")
	}
}

// TestConcurrentSendsShareOneSenderPerPeer races first Sends to the same
// peers from several goroutines (run under -race): the lock-free lookup
// must never see a half-published map, each peer gets exactly one sender —
// created under mu, as before — an unknown peer is still logged once, and
// after Close the published peers refuse like unpublished ones.
func TestConcurrentSendsShareOneSenderPerPeer(t *testing.T) {
	const peers, senders, each = 4, 8, 200
	var logs syncBuffer
	tr, err := Listen(0, "127.0.0.1:0", nil, log.New(&logs, "", 0), Options{QueueLen: senders * each})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Start(func(types.NodeID, []byte) {})
	addrs := map[types.NodeID]string{}
	for p := 1; p <= peers; p++ {
		rx, _ := listenT(t, types.NodeID(p), Options{})
		addrs[types.NodeID(p)] = rx.Addr()
	}
	tr.SetPeers(addrs)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				for p := 1; p <= peers; p++ {
					if !tr.Send(types.NodeID(p), []byte("frame")) {
						t.Errorf("Send to known peer %d refused", p)
						return
					}
				}
				if tr.Send(99, []byte("frame")) {
					t.Error("Send to an unknown peer accepted")
					return
				}
			}
		}()
	}
	wg.Wait()
	stats := tr.Stats()
	if len(stats) != peers {
		t.Fatalf("%d senders for %d peers: %v", len(stats), peers, stats)
	}
	for p := 1; p <= peers; p++ {
		awaitSent(t, tr, types.NodeID(p), senders*each)
	}
	if got := strings.Count(logs.String(), "no address for peer"); got != 1 {
		t.Errorf("the unknown peer was logged %d times, want once", got)
	}
	tr.Close()
	if tr.Send(1, []byte("frame")) {
		t.Error("Send to an established peer succeeded on a closed transport")
	}
}
