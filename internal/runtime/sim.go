package runtime

import (
	"fmt"
	"io"
	"log"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/des"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/types"
)

// SimCluster runs processes in virtual time on a discrete-event scheduler.
//
// CPU model: each node is an exclusive server. Handling a delivery (or a
// timer) begins at max(arrival, busyUntil) and occupies the CPU for the
// modelled cost of the event — a per-message receive cost plus whatever the
// handler charges through cryptographic operations and explicit Charge
// calls. Messages sent during the event depart at the charged time of the
// Send call, so saturation and queueing delays emerge naturally when the
// offered load exceeds CPU capacity, which is exactly the effect the
// paper's Figures 4 and 5 measure.
//
// SimCluster is single-threaded and not safe for concurrent use.
type SimCluster struct {
	sched   *des.Scheduler
	fabric  *netsim.Fabric
	nodes   map[types.NodeID]*simNode
	order   []types.NodeID
	logger  *log.Logger
	started bool
}

// NewSimCluster returns an empty simulated cluster.
func NewSimCluster(sched *des.Scheduler, fabric *netsim.Fabric) *SimCluster {
	return &SimCluster{
		sched:  sched,
		fabric: fabric,
		nodes:  make(map[types.NodeID]*simNode),
		logger: log.New(io.Discard, "", 0),
	}
}

// SetLogger directs process debug logs to l (default: discarded).
func (c *SimCluster) SetLogger(l *log.Logger) { c.logger = l }

// Scheduler returns the underlying scheduler.
func (c *SimCluster) Scheduler() *des.Scheduler { return c.sched }

// Fabric returns the network fabric.
func (c *SimCluster) Fabric() *netsim.Fabric { return c.fabric }

// AddNode registers a process before Start.
func (c *SimCluster) AddNode(id types.NodeID, ident *crypto.Identity, proc Process) error {
	if c.started {
		return fmt.Errorf("runtime: AddNode(%v) after Start", id)
	}
	if _, dup := c.nodes[id]; dup {
		return fmt.Errorf("runtime: duplicate node %v", id)
	}
	n := &simNode{c: c, id: id, ident: ident, proc: proc, busyUntil: c.sched.Now()}
	c.nodes[id] = n
	c.order = append(c.order, id)
	return nil
}

// Start schedules every node's Init (in registration order) at the current
// virtual time.
func (c *SimCluster) Start() {
	c.started = true
	for _, id := range c.order {
		n := c.nodes[id]
		c.sched.Post(c.sched.Now(), func() {
			n.runEvent(0, func() { n.proc.Init(n) })
		})
	}
}

// Crash makes a node stop processing and emitting (a node-level crash;
// in-flight messages to it are discarded on arrival).
func (c *SimCluster) Crash(id types.NodeID) {
	if n, ok := c.nodes[id]; ok {
		n.down = true
	}
}

// Env returns the environment of a node, letting test harnesses act as the
// node (e.g. to inject a fault from inside its event loop).
func (c *SimCluster) Env(id types.NodeID) (Env, bool) {
	n, ok := c.nodes[id]
	return n, ok
}

// Inject schedules fn to run inside id's event loop at the current virtual
// time (fault injectors use this to act "as" the node).
func (c *SimCluster) Inject(id types.NodeID, fn func(env Env)) error {
	n, ok := c.nodes[id]
	if !ok {
		return fmt.Errorf("runtime: no node %v", id)
	}
	c.sched.Post(c.sched.Now(), func() {
		if n.down {
			return
		}
		n.runEvent(0, func() { fn(n) })
	})
	return nil
}

// simNode implements Env in virtual time.
type simNode struct {
	c     *SimCluster
	id    types.NodeID
	ident *crypto.Identity
	proc  Process
	down  bool

	busyUntil  time.Time
	inEvent    bool
	start      time.Time
	charged    time.Duration
	scratch    []byte // ScratchDigest's result
	sigScratch []byte // ScratchSign's result
	arenas     message.Arenas
}

var _ Env = (*simNode)(nil)

// runEvent executes fn as one CPU-exclusive event with the given base cost.
func (n *simNode) runEvent(baseCost time.Duration, fn func()) {
	n.start = maxTime(n.c.sched.Now(), n.busyUntil)
	n.charged = baseCost
	n.inEvent = true
	fn()
	n.inEvent = false
	n.busyUntil = n.start.Add(n.charged)
}

// ID implements Env.
func (n *simNode) ID() types.NodeID { return n.id }

// Now implements Env: virtual time including CPU charged in this event.
func (n *simNode) Now() time.Time {
	if n.inEvent {
		return n.start.Add(n.charged)
	}
	return n.c.sched.Now()
}

// Charge implements Env.
func (n *simNode) Charge(d time.Duration) {
	if d > 0 {
		n.charged += d
	}
}

// Send implements Env.
func (n *simNode) Send(to types.NodeID, m message.Message) {
	n.transmit(to, m, len(m.Marshal()), true)
}

// Multicast implements Env.
func (n *simNode) Multicast(tos []types.NodeID, m message.Message) {
	size := len(m.Marshal())
	for _, to := range tos {
		n.transmit(to, m, size, true)
	}
}

func (n *simNode) transmit(to types.NodeID, m message.Message, size int, record bool) {
	params := n.c.fabric.Params()
	if to != n.id {
		// Sender-side CPU: marshalling and stack costs per copy.
		n.Charge(params.SendCost(size))
		if record {
			n.c.fabric.Record(m.Type(), size)
		}
	}
	delay, ok := n.c.fabric.Delay(n.id, to, size)
	if !ok {
		return // link cut or endpoint isolated
	}
	target, exists := n.c.nodes[to]
	if !exists {
		return
	}
	from := n.id
	departure := n.Now()
	arrival := departure.Add(delay)
	recvCost := params.RecvCost(size)
	if to == n.id {
		recvCost = 0 // local loopback, no stack traversal
	}
	// Post, not At: deliveries are fire-and-forget, so the scheduler can
	// recycle the event instead of allocating one per message.
	n.c.sched.Post(arrival, func() {
		if target.down {
			return
		}
		target.runEvent(recvCost, func() { target.proc.Receive(target, from, m) })
	})
}

// SetTimer implements Env; the scheduler's event is the handle.
func (n *simNode) SetTimer(d time.Duration, fn func()) Timer {
	at := n.Now().Add(d)
	return n.c.sched.At(at, func() {
		if n.down {
			return
		}
		n.runEvent(0, fn)
	})
}

// Digest implements Env, charging the modelled digest cost.
func (n *simNode) Digest(data []byte) []byte {
	n.Charge(n.ident.Suite().Costs().DigestCost(len(data)))
	return n.ident.Digest(data)
}

// ScratchDigest implements Env, charging what Digest charges.
func (n *simNode) ScratchDigest(data []byte) []byte {
	n.Charge(n.ident.Suite().Costs().DigestCost(len(data)))
	n.scratch = n.ident.AppendDigest(n.scratch[:0], data)
	return n.scratch
}

// Sign implements Env, charging the modelled signing cost.
func (n *simNode) Sign(digest []byte) (crypto.Signature, error) {
	n.Charge(n.ident.Suite().Costs().Sign)
	return n.ident.Sign(digest)
}

// ScratchSign implements Env, charging what Sign charges.
func (n *simNode) ScratchSign(digest []byte) (crypto.Signature, error) {
	n.Charge(n.ident.Suite().Costs().Sign)
	var err error
	n.sigScratch, err = n.ident.AppendSign(n.sigScratch[:0], digest)
	return n.sigScratch, err
}

// WireArenas is where message.Sign copies the messages the node signs. It
// charges nothing: where a message's bytes live costs no virtual time.
func (n *simNode) WireArenas() *message.Arenas { return &n.arenas }

// Verify implements Env, charging the modelled verification cost.
func (n *simNode) Verify(signer types.NodeID, digest []byte, sig crypto.Signature) error {
	n.Charge(n.ident.Suite().Costs().Verify)
	return n.ident.Verify(signer, digest, sig)
}

// Logf implements Env.
func (n *simNode) Logf(format string, args ...any) {
	n.c.logger.Printf("[%12s %v] %s",
		n.Now().Sub(des.Epoch), n.id, fmt.Sprintf(format, args...))
}
