package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

// TestTCPMulticastMarshalsOnce is the TCP-substrate twin of
// TestLiveMulticastMarshalsOnce: an n-way fan-out over real sockets must
// perform exactly one Marshal, with the cached encoding shared by every
// peer queue (and the self-destination delivered decoded).
func TestTCPMulticastMarshalsOnce(t *testing.T) {
	idents := identities(t, crypto.NewHMACSuite(), 3)
	c := NewTCPCluster()
	var calls, got int32
	for id := range idents {
		if err := c.AddNode(id, idents[id], &sinkProc{got: &got}); err != nil {
			t.Fatal(err)
		}
	}
	c.Start()
	defer c.Stop()

	msg := &countingMsg{inner: &message.Request{Client: 0, ClientSeq: 1, Payload: []byte("x")}, calls: &calls}
	if err := c.Inject(0, func(env Env) {
		env.Multicast([]types.NodeID{0, 1, 2}, msg)
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for atomic.LoadInt32(&got) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := atomic.LoadInt32(&got); n != 3 {
		t.Errorf("TCP Multicast delivered %d times, want 3", n)
	}
	if n := atomic.LoadInt32(&calls); n != 1 {
		t.Errorf("TCP Multicast marshalled %d times for 3 destinations, want 1", n)
	}
}

// TestTCPSelfLoopbackSkipsDecode checks that a self-addressed message
// skips the socket and arrives as the identical decoded value.
func TestTCPSelfLoopbackSkipsDecode(t *testing.T) {
	idents := identities(t, crypto.NewHMACSuite(), 1)
	c := NewTCPCluster()
	var gotSame int32
	sent := &message.Request{Client: 0, ClientSeq: 9, Payload: []byte("self")}
	if err := c.AddNode(0, idents[0], &identityCheckProc{want: sent, same: &gotSame}); err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	if err := c.Inject(0, func(env Env) { env.Send(0, sent) }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for atomic.LoadInt32(&gotSame) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if atomic.LoadInt32(&gotSame) != 1 {
		t.Error("TCP self-loopback did not deliver the identical message value")
	}
}

// TestTCPClusterCrashSilences checks Crash makes a node stop emitting and
// processing, as on the other substrates.
func TestTCPClusterCrashSilences(t *testing.T) {
	idents := identities(t, crypto.NewHMACSuite(), 2)
	c := NewTCPCluster()
	var got int32
	if err := c.AddNode(0, idents[0], &sinkProc{got: new(int32)}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode(1, idents[1], &sinkProc{got: &got}); err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	c.Crash(0)
	if err := c.Inject(0, func(env Env) { env.Send(1, ping(1)) }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if n := atomic.LoadInt32(&got); n != 0 {
		t.Errorf("crashed node still delivered %d messages", n)
	}
}

// TestInjectAllocFree pins what acting on a node's loop costs: Inject
// queues the caller's func(Env) as it is, with no wrapper closure around
// it, so once the event queue has grown a ready-made function runs on the
// loop — with the node's own Env — for no allocation, on the TCP and the
// in-process substrates alike.
func TestInjectAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation floors do not hold under the race detector")
	}
	idents := identities(t, crypto.NewHMACSuite(), 1)
	tcp, live := NewTCPCluster(), NewLiveCluster(nil)
	if err := tcp.AddNode(0, idents[0], &sinkProc{got: new(int32)}); err != nil {
		t.Fatal(err)
	}
	if err := live.AddNode(0, idents[0], &sinkProc{got: new(int32)}); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]interface {
		Start()
		Stop()
		Inject(types.NodeID, func(Env)) error
	}{"tcp": tcp, "live": live} {
		c.Start()
		done := make(chan types.NodeID, 1)
		fn := func(env Env) { done <- env.ID() }
		inject := func() {
			if err := c.Inject(0, fn); err != nil {
				t.Fatal(err)
			}
			if id := <-done; id != 0 {
				t.Fatalf("%s: injected function ran with node %v's Env, want node 0's", name, id)
			}
		}
		inject() // grow both of the loop's queue arrays
		inject()
		if got := testing.AllocsPerRun(100, inject); got != 0 {
			t.Errorf("%s: Inject of a ready-made function = %v allocs, want 0", name, got)
		}
		c.Stop()
	}
}
