package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

// groupSink counts deliveries per hosting group, recording the sequence
// numbers it saw so cross-group leakage is attributable.
type groupSink struct {
	got  *int32
	seqs chan uint64
}

func (p *groupSink) Init(Env) {}
func (p *groupSink) Receive(_ Env, _ types.NodeID, m message.Message) {
	atomic.AddInt32(p.got, 1)
	if req, ok := m.(*message.Request); ok && p.seqs != nil {
		select {
		case p.seqs <- req.ClientSeq:
		default:
		}
	}
}

// TestShardedTCPGroupIsolation: two sharded nodes, two groups over ONE
// transport each. A message sent from node 0's group-1 core must arrive
// only at node 1's group-1 core, never at group 0 — the one-byte prefix
// is the only demultiplexer, so this is the wire-format acceptance test.
func TestShardedTCPGroupIsolation(t *testing.T) {
	idents := identities(t, crypto.NewHMACSuite(), 2)
	c := NewTCPCluster()
	var g0A, g1A, g0B, g1B int32
	if err := c.AddNode(0, idents[0],
		&groupSink{got: &g0A}, &groupSink{got: &g1A},
	); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode(1, idents[1],
		&groupSink{got: &g0B}, &groupSink{got: &g1B},
	); err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	if err := c.InjectGroup(0, 1, func(env Env) { env.Send(1, ping(7)) }); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for atomic.LoadInt32(&g1B) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if atomic.LoadInt32(&g1B) != 1 {
		t.Fatalf("group-1 frame not delivered to node 1's group-1 core")
	}
	time.Sleep(100 * time.Millisecond) // would-be leakage window
	if n := atomic.LoadInt32(&g0B); n != 0 {
		t.Errorf("group-1 frame leaked into node 1's group-0 core (%d deliveries)", n)
	}
	if n := atomic.LoadInt32(&g0A) + atomic.LoadInt32(&g1A); n != 0 {
		t.Errorf("sender's own cores saw %d deliveries for a peer-addressed send", n)
	}

	// The reverse direction through the other group, via multicast with a
	// self-destination: self goes over the decoded loopback, the peer over
	// the prefixed wire.
	if err := c.InjectGroup(1, 0, func(env Env) {
		env.Multicast([]types.NodeID{0, 1}, ping(8))
	}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for (atomic.LoadInt32(&g0A) == 0 || atomic.LoadInt32(&g0B) == 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if atomic.LoadInt32(&g0A) != 1 || atomic.LoadInt32(&g0B) != 1 {
		t.Fatalf("group-0 multicast: node0/g0=%d node1/g0=%d, want 1/1",
			atomic.LoadInt32(&g0A), atomic.LoadInt32(&g0B))
	}
	if n := atomic.LoadInt32(&g1A); n != 0 {
		t.Errorf("group-0 multicast leaked into node 0's group-1 core (%d)", n)
	}
}

// TestShardedTCPSharesOneTransport pins the resource model: N groups on
// one node mean ONE listener/transport, not N — the whole point of
// multiplexing groups behind a shared session layer.
func TestShardedTCPSharesOneTransport(t *testing.T) {
	idents := identities(t, crypto.NewHMACSuite(), 1)
	c := NewTCPCluster()
	if err := c.AddNode(0, idents[0],
		&groupSink{got: new(int32)}, &groupSink{got: new(int32)}, &groupSink{got: new(int32)},
	); err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	n, ok := c.Node(0)
	if !ok {
		t.Fatal("node 0 missing")
	}
	if n.Transport() == nil || n.Addr() == "" {
		t.Fatal("sharded node has no transport")
	}
	for g := 0; g < 3; g++ {
		if n.core(g) == nil {
			t.Fatalf("group %d core missing", g)
		}
		if n.core(g).n.tr != n.Transport() {
			t.Fatalf("group %d core does not share the node transport", g)
		}
	}
	if n.core(3) != nil {
		t.Error("core(3) exists for a 3-group node")
	}
	if err := c.InjectGroup(0, 3, func(Env) {}); err == nil {
		t.Error("InjectGroup accepted an unhosted group")
	}
}

// TestShardedTCPRestart: a killed sharded node restarts with fresh group
// processes on the same address and resumes receiving per group.
func TestShardedTCPRestart(t *testing.T) {
	idents := identities(t, crypto.NewHMACSuite(), 2)
	c := NewTCPCluster()
	var before, after int32
	if err := c.AddNode(0, idents[0],
		&groupSink{got: new(int32)}, &groupSink{got: &before},
	); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode(1, idents[1],
		&groupSink{got: new(int32)}, &groupSink{got: new(int32)},
	); err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(0, idents[0],
		&groupSink{got: new(int32)}, &groupSink{got: &after},
	); err != nil {
		t.Fatal(err)
	}
	// The peer's redial loop finds the successor; keep sending until one
	// lands.
	deadline := time.Now().Add(10 * time.Second)
	for atomic.LoadInt32(&after) == 0 && time.Now().Before(deadline) {
		if err := c.InjectGroup(1, 1, func(env Env) { env.Send(0, ping(1)) }); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if atomic.LoadInt32(&after) == 0 {
		t.Fatal("restarted sharded node never received on group 1")
	}
	if atomic.LoadInt32(&before) != 0 {
		t.Error("dead incarnation's group core received post-restart traffic")
	}
}
