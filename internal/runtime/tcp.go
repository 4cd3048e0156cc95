package runtime

import (
	"fmt"
	"io"
	"log"
	"strconv"
	"sync"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/shard"
	"github.com/sof-repro/sof/internal/tcpnet"
	"github.com/sof-repro/sof/internal/types"
)

// TCPNode runs one physical TCP endpoint hosting one or more protocol
// processes: inbound frames from a tcpnet.Transport feed the shared
// delivery engine's event loops, and outbound sends go through the
// transport's per-peer queues. It is the third substrate — the same
// reactor code that runs on the simulator and the in-process live
// runtime runs here over real sockets.
//
// A node hosting one process is plain: its wire format is a raw message
// encoding per frame. A node hosting more is sharded: one process per
// ordering group over the SAME transport and sessions — N groups cost one
// listener, one set of peer connections and one session journal per
// physical node, not N× — and every frame carries a one-byte group
// address ahead of the message encoding, demultiplexed to the group's own
// event loop on receipt. Group cores never share protocol state; the
// transport beneath them is the only shared layer.
//
// The outbound path is encode-once: Send and Multicast hand the
// transport the message's cached wire encoding (message.Message.Marshal
// memoizes it), so an n-way fan-out costs one Marshal and zero copies,
// exactly like the in-process runtimes (sharded nodes add one prefix
// copy per fan-out, not per destination). Self-addressed messages skip
// the wire and are delivered decoded. With tcpnet.Options.Session the
// frames beneath this node are sequenced, HMAC-authenticated and
// resumable; the cores above are oblivious.
type TCPNode struct {
	tr      *tcpnet.Transport
	wg      sync.WaitGroup
	sharded bool       // frames carry the one-byte group prefix
	cores   []*tcpCore // index = group; nil entries host no process

	// Routing instruments, pre-registered per hosted group and indexed by
	// the same slice position as cores — the dispatch hot path does one
	// slice load and one atomic add, no map lookup. All nil (and no-op)
	// when the transport options carried no registry.
	routed     []*obs.Counter // frames routed to each group's event loop
	unroutable *obs.Counter   // frames with no hosting group (or no prefix)
}

// tcpCore is one group's delivery engine on a (possibly shared) TCP
// endpoint: its own serialised event loop and Env, sending through the
// owner's transport.
type tcpCore struct {
	engine
	n     *TCPNode
	group int
}

var _ Env = (*tcpCore)(nil)

// groupPrefix wraps raw in the sharded wire format (see
// shard.PrefixGroup — the format is shared with client submissions and
// commit replies).
func groupPrefix(group int, raw []byte) []byte {
	return shard.PrefixGroup(group, raw)
}

// Send implements Env. Self-addressed messages skip the wire and are
// delivered decoded; everything else ships the cached encoding, group-
// prefixed on sharded nodes.
func (c *tcpCore) Send(to types.NodeID, m message.Message) {
	if c.isDown() {
		return
	}
	if to == c.ID() {
		c.loopback(m)
		return
	}
	raw := m.Marshal()
	if c.n.sharded {
		raw = groupPrefix(c.group, raw)
	}
	c.n.tr.Send(to, raw)
}

// Multicast implements Env via the engine's encode-once fan-out: the
// same encoding (wrapped at most once) is enqueued to every
// destination's peer queue.
func (c *tcpCore) Multicast(tos []types.NodeID, m message.Message) {
	var wrapped []byte
	c.fanOut(tos, m, func(to types.NodeID, m message.Message, raw []byte) {
		if to == c.ID() {
			c.loopback(m)
			return
		}
		if c.n.sharded {
			if wrapped == nil {
				wrapped = groupPrefix(c.group, raw)
			}
			raw = wrapped
		}
		c.n.tr.Send(to, raw)
	})
}

// NewTCPNode binds a TCP endpoint on addr hosting procs[g] for every group
// g (nil entries host nothing and drop that group's inbound frames); more
// than one entry makes the node sharded, and all nodes and clients of a
// sharded deployment must be: the group-prefix wire format is
// cluster-wide. peers maps every other process (and known client) ID to
// its address; it may be nil if supplied later via Transport().SetPeers
// before the node starts sending. Call Start to begin serving and Stop to
// shut down.
func NewTCPNode(id types.NodeID, addr string, ident *crypto.Identity, procs []Process,
	peers map[types.NodeID]string, logger *log.Logger, opts tcpnet.Options) (*TCPNode, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("runtime: node %v hosts no process", id)
	}
	sharded := len(procs) > 1
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	tr, err := tcpnet.Listen(id, addr, peers, logger, opts)
	if err != nil {
		return nil, err
	}
	n := &TCPNode{tr: tr, sharded: sharded, cores: make([]*tcpCore, len(procs)),
		routed: make([]*obs.Counter, len(procs))}
	var undecodable *obs.Counter
	if m := opts.Metrics; m != nil {
		n.unroutable = m.Counter("sof_frames_unroutable_total",
			"Inbound frames dropped for lacking a hosted group (or a group prefix).",
			obs.L("node", fmt.Sprint(id)))
		undecodable = m.Counter("sof_frames_undecodable_total",
			"Inbound frames dropped because they did not decode as a message.",
			obs.L("node", fmt.Sprint(id)))
	}
	for g, proc := range procs {
		if proc == nil {
			continue
		}
		if m := opts.Metrics; m != nil {
			n.routed[g] = m.Counter("sof_group_frames_routed_total",
				"Inbound frames routed to this group's event loop.",
				obs.L("node", fmt.Sprint(id)), obs.L("group", strconv.Itoa(g)))
		}
		core := &tcpCore{n: n, group: g}
		logf := func(format string, args ...any) {
			logger.Printf("[%v] %s", id, fmt.Sprintf(format, args...))
		}
		if sharded {
			group := g
			logf = func(format string, args ...any) {
				logger.Printf("[%v/g%d] %s", id, group, fmt.Sprintf(format, args...))
			}
		}
		core.attach(id, ident, proc, core, logf)
		core.undecodable = undecodable
		n.cores[g] = core
	}
	return n, nil
}

// core returns the group's delivery core, or nil.
func (n *TCPNode) core(group int) *tcpCore {
	if group < 0 || group >= len(n.cores) {
		return nil
	}
	return n.cores[group]
}

// Addr returns the node's bound listen address.
func (n *TCPNode) Addr() string { return n.tr.Addr() }

// Transport exposes the underlying transport (peer wiring, stats,
// connection fault injection).
func (n *TCPNode) Transport() *tcpnet.Transport { return n.tr }

// Fatal reports an unrecoverable transport failure; callers that own the
// OS process (cmd/sofnode) should treat it as reason to exit non-zero.
func (n *TCPNode) Fatal() <-chan error { return n.tr.Fatal() }

// Start launches every group's event loop with its process's Init as the
// first event, then begins accepting connections — in that order, so
// inbound frames (and a recovered session's replay, which can arrive the
// moment the transport is up) are never processed ahead of Init.
func (n *TCPNode) Start() {
	for _, c := range n.cores {
		if c != nil {
			c.startLoop(&n.wg)
		}
	}
	n.tr.Start(n.dispatch)
}

// dispatch routes one inbound frame to its group's event loop. Plain
// nodes have exactly one core and no prefix; sharded nodes strip the
// group byte and drop frames addressed to groups they do not host.
func (n *TCPNode) dispatch(from types.NodeID, frame []byte) {
	if !n.sharded {
		if c := n.cores[0]; c != nil {
			n.routed[0].Inc()
			c.enqueue(liveEvent{from: from, raw: frame})
		}
		return
	}
	if len(frame) < 1 {
		n.unroutable.Inc()
		return
	}
	g := int(frame[0])
	c := n.core(g)
	if c == nil {
		n.unroutable.Inc()
		return
	}
	n.routed[g].Inc()
	c.enqueue(liveEvent{from: from, raw: frame[1:]})
}

// Stop closes the transport and every event loop and waits for all.
func (n *TCPNode) Stop() {
	n.tr.Close()
	for _, c := range n.cores {
		if c != nil {
			c.closeLoop()
		}
	}
	n.wg.Wait()
}

// setDown silences every hosted process (Crash semantics).
func (n *TCPNode) setDown() {
	for _, c := range n.cores {
		if c != nil {
			c.setDown()
		}
	}
}

// TCPCluster runs a whole cluster as real TCP endpoints on loopback: one
// TCPNode (listener, event loop, peer senders) per process, all inside one
// OS process so the harness can drive it, but with every message crossing
// real sockets. It implements the same substrate surface as LiveCluster.
type TCPCluster struct {
	logger  *log.Logger
	opts    tcpnet.Options
	optsFor func(types.NodeID) tcpnet.Options

	mu      sync.Mutex
	nodes   map[types.NodeID]*TCPNode
	order   []types.NodeID
	killed  map[types.NodeID]string // id -> listen address, for Restart
	started bool
}

// NewTCPCluster returns an empty TCP cluster with default transport
// options.
func NewTCPCluster() *TCPCluster {
	return &TCPCluster{
		logger: log.New(io.Discard, "", 0),
		nodes:  make(map[types.NodeID]*TCPNode),
		killed: make(map[types.NodeID]string),
	}
}

// SetLogger directs process debug logs to l (default: discarded). Call
// before AddNode.
func (c *TCPCluster) SetLogger(l *log.Logger) { c.logger = l }

// SetTransportOptions overrides transport tuning (including the session
// config) for nodes added later.
func (c *TCPCluster) SetTransportOptions(opts tcpnet.Options) { c.opts = opts }

// SetNodeOptions installs a per-node transport-options factory, taking
// precedence over SetTransportOptions. Durable deployments need it: each
// node owns its own session journal (one directory per process), and
// shaped deployments derive each node's Shape hook from its own identity.
// Call before AddNode.
func (c *TCPCluster) SetNodeOptions(fn func(types.NodeID) tcpnet.Options) { c.optsFor = fn }

func (c *TCPCluster) nodeOpts(id types.NodeID) tcpnet.Options {
	if c.optsFor != nil {
		return c.optsFor(id)
	}
	return c.opts
}

// AddNode registers a node hosting procs — one per ordering group,
// multiplexed over one listener and one session config when there are
// several (see NewTCPNode) — before Start: it binds a loopback listener
// immediately (so Start can distribute the full address map) but serves
// nothing until Start. A cluster must be uniformly sharded or uniformly
// plain — the wire formats differ.
func (c *TCPCluster) AddNode(id types.NodeID, ident *crypto.Identity, procs ...Process) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return fmt.Errorf("runtime: AddNode(%v) after Start", id)
	}
	if _, dup := c.nodes[id]; dup {
		return fmt.Errorf("runtime: duplicate node %v", id)
	}
	n, err := NewTCPNode(id, "127.0.0.1:0", ident, procs, nil, c.logger, c.nodeOpts(id))
	if err != nil {
		return err
	}
	c.nodes[id] = n
	c.order = append(c.order, id)
	return nil
}

// Kill hard-stops one node, as a process crash would: its listener and
// connections close and its event loop stops processing, but nothing is
// flushed or handed over — peers see the connections die and keep
// redialling the (now dead) address. The address is remembered so Restart
// can bind the successor incarnation in its place. Callers owning durable
// state for the node (session journals) crash it separately; the transport
// never flushes it.
func (c *TCPCluster) Kill(id types.NodeID) error {
	c.mu.Lock()
	n, ok := c.nodes[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("runtime: no node %v to kill", id)
	}
	delete(c.nodes, id)
	c.killed[id] = n.Addr()
	c.mu.Unlock()
	n.Stop()
	return nil
}

// WasKilled reports whether id was stopped by Kill and awaits Restart.
func (c *TCPCluster) WasKilled(id types.NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.killed[id]
	return ok
}

// Restart brings a killed node back as a new incarnation: a fresh TCPNode
// for the same ID on the same address (so peers' redial loops find it),
// hosting procs. With a durable session journal in the node's transport
// options, the new incarnation recovers its predecessor's session state
// and replays the unacknowledged window; protocol state is whatever procs
// carry — an order process built from a restored protocol checkpoint
// rejoins at its committed watermark and triggers its catch-up round from
// Init, which Start guarantees runs before any inbound frame (see
// engine.startLoop), so the rebind itself is what kicks off catch-up
// before ordering resumes. Client processes are typically reused across
// the restart.
func (c *TCPCluster) Restart(id types.NodeID, ident *crypto.Identity, procs ...Process) error {
	c.mu.Lock()
	addr, ok := c.killed[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("runtime: node %v was not killed", id)
	}
	opts := c.nodeOpts(id)
	logger := c.logger
	addrs := make(map[types.NodeID]string, len(c.nodes)+1)
	for nid, n := range c.nodes {
		addrs[nid] = n.Addr()
	}
	addrs[id] = addr
	c.mu.Unlock()

	n, err := NewTCPNode(id, addr, ident, procs, addrs, logger, opts)
	if err != nil {
		return fmt.Errorf("runtime: restarting %v: %w", id, err)
	}
	c.mu.Lock()
	if _, dup := c.nodes[id]; dup {
		c.mu.Unlock()
		n.tr.Close()
		return fmt.Errorf("runtime: node %v already restarted", id)
	}
	delete(c.killed, id)
	c.nodes[id] = n
	c.mu.Unlock()
	n.Start()
	return nil
}

// Start distributes the complete address map to every node, then launches
// their event loops and runs Init.
func (c *TCPCluster) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.started = true
	addrs := make(map[types.NodeID]string, len(c.nodes))
	for id, n := range c.nodes {
		addrs[id] = n.Addr()
	}
	for _, id := range c.order {
		c.nodes[id].Transport().SetPeers(addrs)
	}
	for _, id := range c.order {
		c.nodes[id].Start()
	}
}

// Stop shuts down every node and waits for their loops to exit.
func (c *TCPCluster) Stop() {
	c.mu.Lock()
	nodes := make([]*TCPNode, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	for _, n := range nodes {
		n.Stop()
	}
}

// Crash makes a node stop processing and emitting (its sockets stay open;
// the process is silent, as in the live cluster).
func (c *TCPCluster) Crash(id types.NodeID) {
	c.mu.Lock()
	n, ok := c.nodes[id]
	c.mu.Unlock()
	if ok {
		n.setDown()
	}
}

// Inject runs fn inside id's event loop (group 0 on sharded nodes).
func (c *TCPCluster) Inject(id types.NodeID, fn func(env Env)) error {
	return c.InjectGroup(id, 0, fn)
}

// InjectGroup runs fn inside one group's event loop on node id.
func (c *TCPCluster) InjectGroup(id types.NodeID, group int, fn func(env Env)) error {
	c.mu.Lock()
	n, ok := c.nodes[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("runtime: no node %v", id)
	}
	core := n.core(group)
	if core == nil {
		return fmt.Errorf("runtime: node %v hosts no group %d", id, group)
	}
	core.enqueue(liveEvent{fn: fn})
	return nil
}

// Node returns the TCPNode for id (tests and stats inspection).
func (c *TCPCluster) Node(id types.NodeID) (*TCPNode, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	return n, ok
}

// BounceConns forcibly closes every live connection of every node's
// transport, as a cluster-wide network fault would; senders redial and,
// with sessions, resume. Fault-injection hook for resume tests.
func (c *TCPCluster) BounceConns() {
	c.mu.Lock()
	nodes := make([]*TCPNode, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	for _, n := range nodes {
		n.Transport().BounceConns()
	}
}
