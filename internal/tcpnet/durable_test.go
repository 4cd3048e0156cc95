package tcpnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/session"
	"github.com/sof-repro/sof/internal/types"
	"github.com/sof-repro/sof/internal/wal/sessionlog"
)

func durableSession(t *testing.T, dir string, keys *crypto.LinkKeys) (*session.Config, *sessionlog.Store) {
	t.Helper()
	st, err := sessionlog.Open(sessionlog.Options{Dir: dir, SyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	return &session.Config{Keys: keys, Journal: st}, st
}

// TestDurableRestartReplaysDeadIncarnationFrames is the transport-level
// restart proof: a process seals frames for a peer that is unreachable,
// dies (journal crash — unsynced tail lost, synced frames kept), and its
// next incarnation — a brand-new Transport over the same journal
// directory — replays them from recovery without any new outbound
// traffic triggering the dial.
func TestDurableRestartReplaysDeadIncarnationFrames(t *testing.T) {
	keys := crypto.NewLinkKeys([]byte("tcpnet-durable-test"))
	dir := t.TempDir()
	opts := Options{RedialMin: 5 * time.Millisecond, RedialMax: 20 * time.Millisecond}

	// The destination: session-enabled but not durable (it stays alive).
	b, bch := listenT(t, 1, Options{Session: &session.Config{Keys: keys}})

	// First incarnation: the peer address points at a dead port, so every
	// frame is sealed (journalled) but cannot be delivered.
	cfg1, st1 := durableSession(t, dir, keys)
	o1 := opts
	o1.Session = cfg1
	a1, err := Listen(0, "127.0.0.1:0", nil, quietLogger(), o1)
	if err != nil {
		t.Fatal(err)
	}
	a1.Start(func(types.NodeID, []byte) {})
	dead := "127.0.0.1:1" // nothing listens there
	a1.SetPeers(map[types.NodeID]string{1: dead})
	const n = 7
	for i := 0; i < n; i++ {
		if !a1.Send(1, []byte(fmt.Sprintf("in-flight-%d", i))) {
			t.Fatalf("send %d dropped", i)
		}
	}
	// Give the sender loop a moment to drain and seal, then persist and
	// crash the incarnation.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, _ := st1.Stats(); st.Appended >= n {
			break
		}
		if time.Now().After(deadline) {
			st, _ := st1.Stats()
			t.Fatalf("frames never journalled: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := st1.Sync(); err != nil {
		t.Fatal(err)
	}
	a1.Close()
	st1.Crash()

	// Second incarnation: same journal directory, real peer address. The
	// recovered sender must dial and replay without any Send call.
	cfg2, st2 := durableSession(t, dir, keys)
	defer st2.Close()
	o2 := opts
	o2.Session = cfg2
	a2, err := Listen(0, "127.0.0.1:0", a2peers(b), quietLogger(), o2)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	a2.Start(func(types.NodeID, []byte) {})

	for i := 0; i < n; i++ {
		select {
		case f := <-bch:
			if want := fmt.Sprintf("in-flight-%d", i); string(f.raw) != want {
				t.Fatalf("replayed frame %d = %q, want %q", i, f.raw, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("dead incarnation's frame %d never replayed; stats %+v", i, a2.Stats()[1])
		}
	}
	// New traffic continues the same session seamlessly.
	if !a2.Send(1, []byte("second life")) {
		t.Fatal("post-recovery send dropped")
	}
	select {
	case f := <-bch:
		if string(f.raw) != "second life" {
			t.Fatalf("got %q", f.raw)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-recovery frame not delivered")
	}
	if st := b.SessionStats()[0]; st.Gaps != 0 || st.Delivered != n+1 {
		t.Errorf("receiver stats %+v: recovery introduced gaps or losses", st)
	}
}

func a2peers(b *Transport) map[types.NodeID]string {
	return map[types.NodeID]string{1: b.Addr()}
}

// TestDurableReceiverSuppressesDuplicatesAcrossRestart: the receiving side
// restarts over its journal; the live sender replays only past the durable
// watermark and nothing is delivered twice.
func TestDurableReceiverSuppressesDuplicatesAcrossRestart(t *testing.T) {
	keys := crypto.NewLinkKeys([]byte("tcpnet-durable-rx"))
	dir := t.TempDir()
	sendOpts := Options{
		Session:   &session.Config{Keys: keys},
		RedialMin: 5 * time.Millisecond, RedialMax: 20 * time.Millisecond,
	}
	a, _ := listenT(t, 0, sendOpts)

	cfgB, stB := durableSession(t, dir, keys)
	b1, err := Listen(1, "127.0.0.1:0", nil, quietLogger(), Options{Session: cfgB})
	if err != nil {
		t.Fatal(err)
	}
	var got1 atomic.Uint64
	b1.Start(func(types.NodeID, []byte) { got1.Add(1) })
	a.SetPeers(map[types.NodeID]string{1: b1.Addr()})
	addr := b1.Addr()

	const n = 20
	for i := 0; i < n; i++ {
		if !a.Send(1, []byte{byte(i)}) {
			t.Fatalf("send %d dropped", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for got1.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d delivered before restart", got1.Load(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := stB.Sync(); err != nil {
		t.Fatal(err)
	}
	b1.Close()
	stB.Crash()

	// Restart the receiver on the same address over the same journal.
	cfgB2, stB2 := durableSession(t, dir, keys)
	defer stB2.Close()
	b2, err := Listen(1, addr, nil, quietLogger(), Options{Session: cfgB2})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	var mu sync.Mutex
	var got2 [][]byte
	b2.Start(func(_ types.NodeID, raw []byte) {
		mu.Lock()
		got2 = append(got2, raw)
		mu.Unlock()
	})
	// New frames; the first write lands in the dead connection's kernel
	// buffer and is only discovered lost on the next write, so keep
	// sending until the redial + handshake happens. The handshake acks
	// the durable watermark, so the n already-delivered frames must NOT
	// be replayed (they would surface in got2 as 1-byte frames).
	deadline = time.Now().Add(10 * time.Second)
	for {
		a.Send(1, []byte("fresh"))
		mu.Lock()
		cnt := len(got2)
		mu.Unlock()
		if cnt >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-restart frames never delivered; sender stats %+v", a.Stats()[1])
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, raw := range got2 {
		if string(raw) != "fresh" {
			t.Fatalf("restarted receiver re-delivered old frame %v: duplicate across restart", raw)
		}
	}
}

// TestShapeDelaysDelivery: the Shape hook imposes its modelled latency on
// the real socket path.
func TestShapeDelaysDelivery(t *testing.T) {
	const delay = 120 * time.Millisecond
	opts := Options{Shape: func(types.NodeID, int) (time.Duration, bool) { return delay, true }}
	a, _ := listenT(t, 0, opts)
	b, bch := listenT(t, 1, Options{})
	a.SetPeers(map[types.NodeID]string{1: b.Addr()})

	start := time.Now()
	if !a.Send(1, []byte("delayed")) {
		t.Fatal("send dropped")
	}
	select {
	case <-bch:
		if elapsed := time.Since(start); elapsed < delay {
			t.Fatalf("frame arrived after %v, want >= %v", elapsed, delay)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shaped frame never delivered")
	}
}

// TestShapeCutAndHeal: a cut link blackholes traffic; the sealed frames
// wait in the ring and replay when the link heals.
func TestShapeCutAndHeal(t *testing.T) {
	keys := crypto.NewLinkKeys([]byte("tcpnet-shape-cut"))
	var cut atomic.Bool
	opts := Options{
		Session:   &session.Config{Keys: keys},
		RedialMin: 5 * time.Millisecond, RedialMax: 20 * time.Millisecond,
		Shape: func(types.NodeID, int) (time.Duration, bool) { return 0, !cut.Load() },
	}
	a, _ := listenT(t, 0, opts)
	b, bch := listenT(t, 1, Options{Session: &session.Config{Keys: keys}})
	a.SetPeers(map[types.NodeID]string{1: b.Addr()})

	if !a.Send(1, []byte("before")) {
		t.Fatal("send dropped")
	}
	select {
	case <-bch:
	case <-time.After(5 * time.Second):
		t.Fatal("pre-cut frame not delivered")
	}

	cut.Store(true)
	const n = 5
	for i := 0; i < n; i++ {
		if !a.Send(1, []byte{byte(i)}) {
			t.Fatalf("send %d dropped at enqueue", i)
		}
	}
	select {
	case f := <-bch:
		t.Fatalf("frame %v crossed a cut link", f.raw)
	case <-time.After(200 * time.Millisecond):
	}

	cut.Store(false)
	for i := 0; i < n; i++ {
		select {
		case f := <-bch:
			if int(f.raw[0]) != i {
				t.Fatalf("frame %d arrived as %d: loss or reorder across the cut", i, f.raw[0])
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d lost across cut+heal; stats %+v", i, a.Stats()[1])
		}
	}
}
