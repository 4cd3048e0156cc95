package runtime

import (
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/types"
)

// LiveCluster runs the same protocol processes in real time: one event-loop
// goroutine per process, real cryptography, and (optionally) artificial
// network delays from a netsim.Fabric. Message payloads cross node
// boundaries in marshalled form and are re-decoded by the receiver, so the
// full wire codec is exercised.
type LiveCluster struct {
	fabric *netsim.Fabric // nil means deliver immediately
	logger *log.Logger

	mu      sync.Mutex
	nodes   map[types.NodeID]*liveNode
	order   []types.NodeID
	started bool
	wg      sync.WaitGroup
}

// NewLiveCluster returns an empty real-time cluster. fabric may be nil for
// zero-delay loopback delivery.
func NewLiveCluster(fabric *netsim.Fabric) *LiveCluster {
	return &LiveCluster{
		fabric: fabric,
		nodes:  make(map[types.NodeID]*liveNode),
		logger: log.New(io.Discard, "", 0),
	}
}

// SetLogger directs process debug logs to l (default: discarded).
func (c *LiveCluster) SetLogger(l *log.Logger) { c.logger = l }

// Fabric returns the network fabric (may be nil).
func (c *LiveCluster) Fabric() *netsim.Fabric { return c.fabric }

// AddNode registers a process before Start.
func (c *LiveCluster) AddNode(id types.NodeID, ident *crypto.Identity, proc Process) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return fmt.Errorf("runtime: AddNode(%v) after Start", id)
	}
	if _, dup := c.nodes[id]; dup {
		return fmt.Errorf("runtime: duplicate node %v", id)
	}
	n := newLiveNode(c, id, ident, proc)
	c.nodes[id] = n
	c.order = append(c.order, id)
	return nil
}

// Start launches every node's event loop and runs Init inside it.
func (c *LiveCluster) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.started = true
	for _, id := range c.order {
		c.nodes[id].startLoop(&c.wg)
	}
}

// Stop shuts down all event loops and waits for them to exit. Messages
// still in flight are dropped.
func (c *LiveCluster) Stop() {
	c.mu.Lock()
	nodes := make([]*liveNode, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	for _, n := range nodes {
		n.closeLoop()
	}
	c.wg.Wait()
}

// Crash makes a node stop processing and emitting.
func (c *LiveCluster) Crash(id types.NodeID) {
	c.mu.Lock()
	n, ok := c.nodes[id]
	c.mu.Unlock()
	if ok {
		n.setDown()
	}
}

// Inject runs fn inside id's event loop (fault injectors use this to act
// "as" the node).
func (c *LiveCluster) Inject(id types.NodeID, fn func(env Env)) error {
	c.mu.Lock()
	n, ok := c.nodes[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("runtime: no node %v", id)
	}
	n.enqueue(liveEvent{fn: fn})
	return nil
}

func (c *LiveCluster) node(id types.NodeID) (*liveNode, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	return n, ok
}

// liveNode runs one process over the shared delivery engine; all that is
// substrate-specific here is how encodings cross node boundaries — via
// the cluster's node map, optionally shaped by fabric delays.
type liveNode struct {
	engine
	c *LiveCluster
}

var _ Env = (*liveNode)(nil)

func newLiveNode(c *LiveCluster, id types.NodeID, ident *crypto.Identity, proc Process) *liveNode {
	n := &liveNode{c: c}
	n.attach(id, ident, proc, n, func(format string, args ...any) {
		c.logger.Printf("[%s %v] %s",
			time.Now().Format("15:04:05.000000"), id, fmt.Sprintf(format, args...))
	})
	return n
}

// Send implements Env.
func (n *liveNode) Send(to types.NodeID, m message.Message) {
	if n.isDown() {
		return
	}
	n.deliver(to, m, m.Marshal())
}

// Multicast implements Env via the engine's encode-once fan-out.
func (n *liveNode) Multicast(tos []types.NodeID, m message.Message) {
	n.fanOut(tos, m, n.deliver)
}

// deliver crosses one encoding to one destination: fabric delay and drop
// modelling, wire accounting, and the decoded self-loopback (which is
// still subject to the modelled delay — local delivery takes fabric time
// in the in-process substrate).
func (n *liveNode) deliver(to types.NodeID, m message.Message, raw []byte) {
	target, ok := n.c.node(to)
	if !ok {
		return
	}
	var delay time.Duration
	if n.c.fabric != nil {
		d, deliverable := n.c.fabric.Delay(n.ID(), to, len(raw))
		if !deliverable {
			return
		}
		delay = d
		if to != n.ID() {
			n.c.fabric.Record(m.Type(), len(raw))
		}
	}
	ev := liveEvent{from: n.ID(), raw: raw}
	if to == n.ID() {
		// Self-loopback skips the wire: messages are immutable, the event
		// loop is this goroutine, so the decoded form is delivered as-is.
		ev = liveEvent{from: n.ID(), msg: m}
		n.remember(m)
	}
	if delay <= 0 {
		target.enqueue(ev)
		return
	}
	time.AfterFunc(delay, func() { target.enqueue(ev) })
}
