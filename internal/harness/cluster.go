package harness

import (
	"fmt"
	"log"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sof-repro/sof/internal/client"
	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/des"
	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/node"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/replica"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/tcpnet"
	"github.com/sof-repro/sof/internal/types"
	"github.com/sof-repro/sof/internal/wal/commitlog"
)

// LoadSpec describes the open-loop client workload: each client submits a
// RequestBytes-sized request every Interval (Count 0 means unlimited).
type LoadSpec struct {
	RequestBytes int
	Interval     time.Duration
	Count        int
}

// generator is the client-side form of the workload (nil for none).
func (l *LoadSpec) generator() *client.Load {
	if l == nil {
		return nil
	}
	return &client.Load{
		Interval: l.Interval,
		Count:    l.Count,
		Payload:  func(int) []byte { return make([]byte, l.RequestBytes) },
	}
}

// Options configures a cluster.
type Options struct {
	Protocol types.Protocol
	F        int
	Suite    crypto.SuiteName
	// SuiteImpl, when non-nil, overrides Suite with a concrete suite
	// instance (e.g. a model suite with a custom cost table for
	// calibration sweeps).
	SuiteImpl crypto.Suite

	BatchInterval     time.Duration
	MaxBatchBytes     int
	Delta             time.Duration
	ViewChangeTimeout time.Duration // BFT only

	// MaxInflightBatches and DigestOnlyAcks are the SC/SCR pipelined-
	// proposer knobs (see core.Config): a proposal window wider than one
	// enables size-triggered batch closes and window refills on commit;
	// DigestOnlyAcks strips subjects from acks in favour of fetch-on-miss.
	MaxInflightBatches int
	DigestOnlyAcks     bool

	// Ingress enables client admission control on every SC/SCR order
	// process (core.Config.Ingress): per-client rate limiting, optional
	// failure lockout, overload brownout, and the fair (deficit
	// round-robin) request pool. The zero value keeps today's
	// unconditional-admission path bit-for-bit. SC/SCR only.
	Ingress ingress.Config

	Mirror           bool
	DumbOptimization bool
	PadBacklogBytes  int
	RecoveryInterval time.Duration // SCR pair-probe period

	Net  netsim.Params
	Seed int64

	// Live selects the real-time goroutine substrate instead of the
	// virtual-time simulator.
	Live bool
	// Transport selects the live substrate's medium: in-process message
	// passing (default) or real loopback TCP sockets with framed,
	// queue-backed peer links. Ignored when Live is false.
	Transport types.Transport
	// AuthFrames upgrades the TCP transport to frame v2: the dealer
	// issues link keys, hellos are authenticated, and every frame
	// carries a per-direction sequence number and an HMAC-SHA256
	// trailer. Requires the live TCP transport.
	AuthFrames bool
	// SessionResume additionally replays the unacknowledged frame window
	// from each sender's retransmission ring after a reconnect, so a
	// dropped connection loses nothing. Implies AuthFrames.
	SessionResume bool
	// SessionRingLen bounds each sender's retransmission ring, in frames
	// (0 = session.DefaultRingLen). Frames evicted from a full ring can
	// never be replayed — a long-dead peer's backlog is pruned, and its
	// recovery falls to the protocol-level checkpoint catch-up.
	SessionRingLen int
	// Durable persists per-node state under DataDir in write-ahead logs:
	// the recorder's commit stream (so CommitsSince serves evicted
	// cursors from disk and commit history survives a crash), and — with
	// SessionResume — each node's session state, so a *restarted* process
	// keeps its session epoch and replays the frames its dead incarnation
	// had sealed but not delivered. Group commit batches fsyncs on the
	// BatchInterval; a crash loses at most that window. Requires Live and
	// a non-empty DataDir.
	Durable bool
	// DataDir is the root directory for durable node state (one
	// subdirectory per node plus the shared commit stream).
	DataDir string
	// CheckpointInterval is the number of delivered sequence numbers
	// between durable protocol checkpoints for SC/SCR order processes
	// under Durable (0 = core.DefaultCheckpointInterval; negative
	// disables protocol checkpoints entirely, leaving only the
	// transport-level durability — the sensitivity twin of the restart
	// catch-up tests uses that).
	CheckpointInterval int
	// TCPShaping applies the simulated network fabric's link model to the
	// real TCP transport: per-link propagation/bandwidth delays from Net,
	// and fabric cuts/isolations blackhole the corresponding socket
	// links, so WAN-profile and partition experiments run on the real
	// substrate. Requires the live TCP transport.
	TCPShaping bool

	// TLS wraps every TCP connection (peer links and client links alike)
	// in TLS 1.3 with a deterministic identity derived from the cluster
	// seed (tcpnet.DevTLS): server authentication against a shared-secret
	// root, transport encryption on the wire. Requires the live TCP
	// transport.
	TLS bool

	// Adversaries installs an adversarial twin on the named order
	// processes: the node keeps the honest SC/SCR reactor but its
	// outbound traffic passes through a core.Tap that mutates, drops or
	// duplicates messages per the kind (adversary.go). Taps persist
	// across RestartNode, so a replayer's pre-restart capture survives
	// its host's restart. SC/SCR only. In sharded clusters the tap
	// attaches to the node's group-0 process.
	Adversaries map[types.NodeID]AdversaryKind

	// Groups runs that many independent ordering groups over the same
	// physical nodes (default 1, today's single-group cluster,
	// bit-for-bit). Each group is a complete SC/SCR deployment — its own
	// coordinator pair (rotated so group g's pair occupies different
	// physical nodes than group g+1's), its own recorder, commit stream,
	// WAL checkpoint directories (<DataDir>/node-<id>/g<idx>/) and request pool —
	// multiplexed over ONE tcpnet transport and session layer per
	// physical node, so N groups do not mean N× sockets or session
	// state. Requests are ordered within their group only; there is no
	// cross-group order. Groups > 1 requires the live TCP transport and
	// Protocol SC or SCR, and is capped at shard.MaxGroups.
	Groups int

	NumClients  int
	Load        *LoadSpec
	KeepCommits bool
	// CommitRetention bounds how many commit events the recorder retains
	// when KeepCommits is set (0 = unlimited), and how many results each
	// replica keeps. The O(1) committed-request index is kept regardless
	// of eviction. Values smaller than a few commit waves (one event per
	// process per batch) are raised to that floor.
	CommitRetention int
	// StateMachine, when non-nil, is instantiated once per order process
	// per group: each replica executes its process's commits on that
	// process's event loop, and outlives the process's incarnations.
	StateMachine func() replica.StateMachine
	Logger       *log.Logger
}

// withDefaults fills unset fields with study defaults (f=2, 1 KB batches,
// 100 ms batching interval, the dealer-trust HMAC-SHA256 suite).
func (o Options) withDefaults() Options {
	if o.F == 0 {
		o.F = 2
	}
	if o.Suite == "" {
		o.Suite = crypto.HMACSHA256
	}
	if o.BatchInterval == 0 {
		o.BatchInterval = 100 * time.Millisecond
	}
	if o.MaxBatchBytes == 0 {
		o.MaxBatchBytes = 1024
	}
	if o.Delta == 0 {
		o.Delta = 5 * time.Second
	}
	if o.NumClients == 0 {
		o.NumClients = 1
	}
	if o.Groups == 0 {
		o.Groups = 1
	}
	if o.Protocol == types.SCR && o.RecoveryInterval == 0 {
		o.RecoveryInterval = o.Delta
	}
	if o.SessionResume {
		o.AuthFrames = true // resume rides on the authenticated handshake
	}
	return o
}

// Cluster is a fully wired order-protocol deployment.
type Cluster struct {
	Opts   Options
	Topo   types.Topology
	Fabric *netsim.Fabric
	// Events is group 0's recorder (the only group in an unsharded
	// cluster); RecorderOf addresses the others.
	Events *Recorder

	sim   *runtime.SimCluster
	live  *runtime.LiveCluster
	tcp   *runtime.TCPCluster
	sched *des.Scheduler
	sub   substrate

	// groups is Options.Groups; groupTopos[g] is the physical topology
	// rotated for group g (groupTopos[0] == Topo); recorders[g] observes
	// group g (recorders[0] == Events).
	groups     int
	groupTopos []types.Topology
	recorders  []*Recorder

	// base is the deployment-wide part of every node's assembly spec
	// (the dealt identities among it); NodeSpec completes it per node.
	base node.Spec
	// nodes holds each node's current assembly (internal/node): its order
	// processes and durable stores. procMu guards it and SC: RestartNode
	// replaces a node's incarnation while measurement goroutines (readiness
	// probes, state snapshots) look processes up.
	procMu  sync.RWMutex
	nodes   map[types.NodeID]*node.Node
	SC      map[types.NodeID]*core.Process    // group-0 SC/SCR processes
	clients map[types.NodeID][]*client.Client // one per ordering group
	// replicas holds each order process's replicas, one per group (none
	// without Options.StateMachine). Like registries they outlive the
	// node's incarnations: every incarnation executes into the same ones.
	replicas map[types.NodeID][]*replica.Replica

	// commitStores are the durable commit streams (Options.Durable with
	// KeepCommits), one per group; they belong to the measurement side and
	// outlive individual nodes.
	commitStores []*commitlog.Store
	storeMu      sync.Mutex
	stopped      bool

	// advTaps holds the per-node adversary taps, created once in New and
	// re-attached on every RestartNode incarnation.
	advTaps map[types.NodeID]adversaryTap

	// registries holds one obs registry per node (lazily created). A
	// registry outlives its node's incarnations: RestartNode's new process
	// re-attaches to the same series, so counters keep their pre-restart
	// totals.
	regMu      sync.Mutex
	registries map[types.NodeID]*obs.Registry
}

// New builds (but does not start) a cluster.
func New(opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	tcp := opts.Live && opts.Transport == types.TransportTCP
	if err := (node.Mode{
		Protocol:    opts.Protocol,
		Live:        opts.Live,
		TCP:         tcp,
		Groups:      opts.Groups,
		AuthFrames:  opts.AuthFrames,
		Shaping:     opts.TCPShaping,
		TLS:         opts.TLS,
		Ingress:     opts.Ingress,
		Durable:     opts.Durable,
		DataDir:     opts.DataDir,
		Adversaries: len(opts.Adversaries) > 0,
	}).Check(); err != nil {
		return nil, err
	}
	topo, err := types.NewTopology(opts.Protocol, opts.F)
	if err != nil {
		return nil, err
	}
	suite := opts.SuiteImpl
	if suite == nil {
		var err error
		suite, err = crypto.ByName(opts.Suite)
		if err != nil {
			return nil, err
		}
	}
	if min := 8 * len(topo.AllProcesses()); opts.CommitRetention > 0 && opts.CommitRetention < min {
		opts.CommitRetention = min
	}
	c := &Cluster{
		Opts:       opts,
		Topo:       topo,
		groups:     opts.Groups,
		nodes:      make(map[types.NodeID]*node.Node),
		SC:         make(map[types.NodeID]*core.Process),
		clients:    make(map[types.NodeID][]*client.Client),
		replicas:   make(map[types.NodeID][]*replica.Replica),
		registries: make(map[types.NodeID]*obs.Registry),
	}
	// One rotated topology and recorder per group. Group 0 is the
	// single-group cluster verbatim: Topo unrotated, Events its recorder.
	c.groupTopos = make([]types.Topology, c.groups)
	c.recorders = make([]*Recorder, c.groups)
	for g := 0; g < c.groups; g++ {
		c.groupTopos[g] = topo.Rotated(g)
		c.recorders[g] = NewRecorder(opts.KeepCommits, opts.CommitRetention)
	}
	c.Events = c.recorders[0]
	// Identities for every order process and client, from the trusted
	// dealer; the shared cache keeps RSA/DSA setup fast across runs.
	ids := topo.AllProcesses()
	for k := 0; k < opts.NumClients; k++ {
		ids = append(ids, types.ClientID(k))
	}
	dealer := crypto.NewDealer(suite, crypto.WithKeyCache(crypto.SharedKeyCache()))
	idents, _, err := dealer.Issue(ids)
	if err != nil {
		return nil, err
	}

	c.advTaps = make(map[types.NodeID]adversaryTap, len(opts.Adversaries))
	for id, kind := range opts.Adversaries {
		tap, err := newAdversaryTap(kind, id, topo, opts.Seed)
		if err != nil {
			return nil, err
		}
		c.advTaps[id] = tap
	}

	c.base = node.Spec{
		Protocol:           opts.Protocol,
		Topo:               topo,
		Groups:             c.groups,
		Idents:             idents,
		BatchInterval:      opts.BatchInterval,
		MaxBatchBytes:      opts.MaxBatchBytes,
		Delta:              opts.Delta,
		ViewChangeTimeout:  opts.ViewChangeTimeout,
		Mirror:             opts.Mirror,
		DumbOptimization:   opts.DumbOptimization,
		PadBacklogBytes:    opts.PadBacklogBytes,
		RecoveryInterval:   opts.RecoveryInterval,
		CheckpointInterval: opts.CheckpointInterval,
		MaxInflightBatches: opts.MaxInflightBatches,
		DigestOnlyAcks:     opts.DigestOnlyAcks,
		Ingress:            opts.Ingress,
		Resume:             opts.SessionResume,
		RingLen:            opts.SessionRingLen,
		Logger:             opts.Logger,
		Hooks:              c.hooks,
	}

	c.Fabric = netsim.New(opts.Net, topo, opts.Seed)
	switch {
	case tcp:
		// Real loopback sockets; the fabric's simulated delays do not
		// apply unless TCPShaping imposes them on the socket path.
		c.tcp = runtime.NewTCPCluster()
		if opts.Logger != nil {
			c.tcp.SetLogger(opts.Logger)
		}
		if opts.AuthFrames {
			if c.base.Links, err = dealer.IssueLinks(); err != nil {
				return nil, err
			}
		}
		if opts.TLS {
			c.base.TLSServer, c.base.TLSClient, err = tcpnet.DevTLS(fmt.Sprintf("harness/%d", opts.Seed))
			if err != nil {
				return nil, err
			}
		}
		// Each node's transport options come from its current assembly:
		// its own session journal, shaping vantage point and registry.
		c.tcp.SetNodeOptions(func(id types.NodeID) tcpnet.Options { return c.node(id).TCPOptions() })
		c.sub = c.tcp
	case opts.Live:
		c.live = runtime.NewLiveCluster(c.Fabric)
		if opts.Logger != nil {
			c.live.SetLogger(opts.Logger)
		}
		c.sub = c.live
	default:
		c.sched = des.New(des.Epoch)
		c.sim = runtime.NewSimCluster(c.sched, c.Fabric)
		if opts.Logger != nil {
			c.sim.SetLogger(opts.Logger)
		}
		c.sub = c.sim
	}

	// The TCP substrate binds a real listener per AddNode, so a failure
	// partway through assembly must release the ones already bound (and
	// close any durable stores already open).
	fail := func(err error) (*Cluster, error) {
		if c.tcp != nil {
			c.tcp.Stop()
		}
		c.closeStores(true)
		return nil, err
	}
	// The durable commit streams (one per group): recover history into
	// each group's recorder before anything commits, so stream positions
	// and the committed index continue where the previous incarnation
	// stopped.
	if opts.Durable && opts.KeepCommits {
		c.commitStores = make([]*commitlog.Store, c.groups)
		for g := 0; g < c.groups; g++ {
			store, err := commitlog.Open(commitlog.Options{
				Dir:          c.commitDir(g),
				SyncInterval: opts.BatchInterval,
				Logger:       opts.Logger,
			})
			if err != nil {
				return fail(err)
			}
			c.commitStores[g] = store
			if err := c.recorders[g].AttachCommitStore(store); err != nil {
				return fail(err)
			}
		}
	}
	// Order processes: each physical node hosts one per group, multiplexed
	// over one TCP endpoint when sharded, and each executes its commits into
	// its own replica.
	for _, id := range topo.AllProcesses() {
		if opts.StateMachine != nil {
			for g := 0; g < c.groups; g++ {
				rep := replica.New(id, opts.StateMachine())
				rep.SetResultRetention(opts.CommitRetention)
				rep.RegisterMetrics(c.RegistryOf(id), node.Labels(id, g, c.groups)...)
				c.replicas[id] = append(c.replicas[id], rep)
			}
		}
		n, err := c.buildNode(id)
		if err != nil {
			return fail(err)
		}
		if err := c.addNode(id, n.Procs); err != nil {
			return fail(err)
		}
	}
	// Clients. With a recovered commit store, continue the durable
	// request-ID namespace: a client of the new incarnation must not
	// reuse a ClientSeq that committed in a previous one (the recovered
	// committed index would answer for the wrong request). The namespace
	// is per client, not per group — all of one client's group endpoints
	// share one atomic sequence counter, so ReqIDs stay globally unique.
	committedSeqs := make(map[types.NodeID]uint64)
	for _, store := range c.commitStores {
		for id, max := range store.MaxClientSeqs() {
			if max > committedSeqs[id] {
				committedSeqs[id] = max
			}
		}
	}
	for k := 0; k < opts.NumClients; k++ {
		id := types.ClientID(k)
		seq := new(atomic.Uint64)
		seq.Store(committedSeqs[id])
		// Fire-and-forget (Need 0), and no reply-to set reaches the nodes,
		// so no node signs or sends a Reply: what the harness calls a commit
		// is the recorder's event, and a submission costs a share of the
		// client's request slab and of its wire arena, and nothing else.
		for g := 0; g < c.groups; g++ {
			c.clients[id] = append(c.clients[id], client.New(client.Config{
				ID:      id,
				Targets: topo.AllProcesses(),
				Seq:     seq,
				Load:    opts.Load.generator(),
			}))
		}
		// A client endpoint is assembled like any node — its own session
		// journal, transport options and registry — but hosts the client
		// processes instead of order processes.
		if _, err := c.buildNode(id); err != nil {
			return fail(err)
		}
		if err := c.addNode(id, c.clientEndpoints(id)); err != nil {
			return fail(err)
		}
	}
	return c, nil
}

// commitDir is the durable commit stream directory for one group. Group
// layout only appears when sharded: a single-group cluster keeps the
// pre-sharding <DataDir>/commits path bit-for-bit.
func (c *Cluster) commitDir(group int) string {
	if c.groups == 1 {
		return filepath.Join(c.Opts.DataDir, "commits")
	}
	return filepath.Join(c.Opts.DataDir, fmt.Sprintf("g%d", group), "commits")
}

// hooks reports group g's events to the group's own recorder.
func (c *Cluster) hooks(g int) node.Hooks {
	rec := c.recorders[g]
	return node.Hooks{
		OnBatched:           rec.OnBatched,
		OnCommit:            rec.OnCommit,
		OnFailSignal:        rec.OnFailSignal,
		OnInstalled:         rec.OnInstalled,
		OnStartTuplesIssued: rec.OnStartTuplesIssued,
		OnPairRecovered:     rec.OnPairRecovered,
	}
}

// NodeSpec is node id's assembly spec — what internal/node builds the
// node from, on New and on every RestartNode. Durable state lives in the
// node's own directory, <DataDir>/node-<id>, laid out as sofnode lays
// out its -data-dir.
func (c *Cluster) NodeSpec(id types.NodeID) node.Spec {
	s := c.base
	s.Self = id
	s.Registry = c.RegistryOf(id)
	s.Replicas = c.replicas[id]
	if c.Opts.Durable {
		s.DataDir = filepath.Join(c.Opts.DataDir, fmt.Sprintf("node-%d", int32(id)))
	}
	if c.Opts.TCPShaping {
		s.Shape = func(to types.NodeID, size int) (time.Duration, bool) {
			return c.Fabric.Delay(id, to, size)
		}
	}
	// Adversary taps attach to the node's group-0 process only (the
	// documented contract on Options.Adversaries).
	if tap, ok := c.advTaps[id]; ok {
		s.Tap = tap
	}
	return s
}

// buildNode assembles node id's next incarnation — opening (on
// RestartNode, reopening) its durable stores — and makes it current.
func (c *Cluster) buildNode(id types.NodeID) (*node.Node, error) {
	n, err := node.Build(c.NodeSpec(id))
	if err != nil {
		return nil, err
	}
	c.setNode(id, n)
	return n, nil
}

func (c *Cluster) setNode(id types.NodeID, n *node.Node) {
	c.procMu.Lock()
	defer c.procMu.Unlock()
	c.nodes[id] = n
	if p := n.Core(0); p != nil {
		c.SC[id] = p
	}
}

// node returns id's current assembly (nil for unknown IDs), safe against
// a concurrent RestartNode.
func (c *Cluster) node(id types.NodeID) *node.Node {
	c.procMu.RLock()
	defer c.procMu.RUnlock()
	return c.nodes[id]
}

// clientEndpoints returns client id's per-group endpoints as processes.
func (c *Cluster) clientEndpoints(id types.NodeID) []runtime.Process {
	procs := make([]runtime.Process, len(c.clients[id]))
	for g, cl := range c.clients[id] {
		procs[g] = cl
	}
	return procs
}

// RegistryOf returns node id's metrics registry, creating it on first
// use. The registry is stable across the node's incarnations.
func (c *Cluster) RegistryOf(id types.NodeID) *obs.Registry {
	c.regMu.Lock()
	defer c.regMu.Unlock()
	r := c.registries[id]
	if r == nil {
		r = obs.NewRegistry()
		c.registries[id] = r
	}
	return r
}

// Metric reads one of node id's group-g instruments from the node's
// registry by name, summing the series that carry the node's labels
// (sof_ingress_shed_total sums its reasons). Counters survive the node's
// incarnations.
func (c *Cluster) Metric(id types.NodeID, group int, name string) float64 {
	return c.RegistryOf(id).Value(name, node.Labels(id, group, c.groups)...)
}

// RejectedCount reports how many ingress Rejected replies client k's
// endpoints (all groups) have received.
func (c *Cluster) RejectedCount(k int) uint64 {
	var total uint64
	for _, cl := range c.clients[types.ClientID(k)] {
		total += cl.Rejected()
	}
	return total
}

// ReadinessOf builds node id's readiness probe (node.Ready): ready when
// every hosted group has left restart catch-up AND (on the TCP substrate)
// the node's transport holds live connections to a majority of the order
// processes. The returned func is what obs.ReadyHandler serves as
// /readyz.
func (c *Cluster) ReadinessOf(id types.NodeID) obs.ReadyFunc {
	return func() error {
		n := c.node(id)
		if n == nil {
			return fmt.Errorf("no node %v", id)
		}
		var tr *tcpnet.Transport
		if c.tcp != nil {
			tn, ok := c.tcp.Node(id)
			if !ok {
				return fmt.Errorf("node %v is down", id)
			}
			tr = tn.Transport()
		}
		return n.Ready(tr)
	}
}

// closeStores closes (or, on the crash path, drops) every durable store.
func (c *Cluster) closeStores(crash bool) {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	if c.stopped {
		return
	}
	c.stopped = true
	c.procMu.RLock()
	defer c.procMu.RUnlock()
	for _, n := range c.nodes {
		if crash {
			n.Crash()
		} else {
			n.Close()
		}
	}
	for _, store := range c.commitStores {
		if store == nil {
			continue
		}
		if crash {
			store.Crash()
		} else if err := store.Close(); err != nil && c.Opts.Logger != nil {
			c.Opts.Logger.Printf("harness: closing commit store: %v", err)
		}
	}
}

// substrate is the surface the harness needs from any of the three
// runtimes (virtual-time simulator, in-process live, TCP).
type substrate interface {
	Start()
	Inject(types.NodeID, func(runtime.Env)) error
	Crash(types.NodeID)
}

// addNode registers a node's processes with the substrate. Only a TCP
// endpoint hosts more than one (one per group, multiplexed).
func (c *Cluster) addNode(id types.NodeID, procs []runtime.Process) error {
	ident := c.base.Idents[id]
	switch {
	case c.tcp != nil:
		return c.tcp.AddNode(id, ident, procs...)
	case c.live != nil:
		return c.live.AddNode(id, ident, procs[0])
	}
	return c.sim.AddNode(id, ident, procs[0])
}

// Start launches the cluster.
func (c *Cluster) Start() { c.sub.Start() }

// Stop shuts the cluster down (live substrates only; the simulator simply
// stops being driven). Durable stores are flushed and closed, so a clean
// shutdown loses nothing.
func (c *Cluster) Stop() {
	if c.live != nil {
		c.live.Stop()
	}
	if c.tcp != nil {
		c.tcp.Stop()
	}
	c.closeStores(false)
}

// SyncDurable forces a group commit of every durable store, so tests can
// place the durability point deterministically instead of waiting out the
// sync interval. No-op without Options.Durable.
func (c *Cluster) SyncDurable() error {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	for _, store := range c.commitStores {
		if err := store.Sync(); err != nil {
			return err
		}
	}
	c.procMu.RLock()
	defer c.procMu.RUnlock()
	for _, n := range c.nodes {
		if err := n.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// KillNode crashes one TCP node: its listener, connections and event loop
// die immediately and its durable stores — the session journal and every
// hosted group's checkpoint store — are dropped without a flush, exactly
// what a process death does. The shared commit stream is not crashed (in
// a real deployment it belongs to the measurement side, and in-process it
// outlives individual nodes). Restart the node with RestartNode.
func (c *Cluster) KillNode(id types.NodeID) error {
	if c.tcp == nil {
		return fmt.Errorf("harness: KillNode requires the live TCP transport")
	}
	if err := c.tcp.Kill(id); err != nil {
		return err
	}
	c.node(id).Crash()
	return nil
}

// RestartNode brings a killed node back as a new incarnation on the same
// address, assembled afresh from its spec. With Durable that reopens the
// node's session journal, so the incarnation recovers its predecessor's
// session epoch, sequence numbers and unacknowledged frame window, and
// replays that window after the authenticated handshake. SC/SCR order
// processes additionally reopen their protocol-checkpoint store: the new
// incarnation restores its view, pair epochs, committed watermark and
// committed-order digest, announces the watermark, and catches up on the
// commits it missed via its peers' CatchUp answers — before resuming
// ordering duties — so recovery no longer depends on peers' bounded
// retransmission rings still holding everything it missed. Client
// processes are reused, preserving their request-ID namespace, and so
// are replicas: the new incarnation executes where the dead one stopped.
func (c *Cluster) RestartNode(id types.NodeID) error {
	if c.tcp == nil {
		return fmt.Errorf("harness: RestartNode requires the live TCP transport")
	}
	if !c.tcp.WasKilled(id) {
		// Never open the journal of a node that is still alive (its own
		// store holds the active segment) or was never added.
		return fmt.Errorf("harness: node %v was not killed", id)
	}
	dead := c.node(id)
	n, err := c.buildNode(id)
	if err != nil {
		return err
	}
	procs := n.Procs
	if _, isClient := c.clients[id]; isClient {
		procs = c.clientEndpoints(id)
	}
	if err := c.tcp.Restart(id, c.base.Idents[id], procs...); err != nil {
		n.Close()
		c.setNode(id, dead)
		return err
	}
	return nil
}

// RunFor advances the cluster by d: virtual time on the simulator, wall
// time live.
func (c *Cluster) RunFor(d time.Duration) {
	if c.sched != nil {
		c.sched.RunFor(d)
		return
	}
	time.Sleep(d)
}

// Now returns cluster time (virtual or wall).
func (c *Cluster) Now() time.Time {
	if c.sched != nil {
		return c.sched.Now()
	}
	return time.Now()
}

// Scheduler exposes the simulator scheduler (nil live).
func (c *Cluster) Scheduler() *des.Scheduler { return c.sched }

// Inject runs fn inside a node's event loop.
func (c *Cluster) Inject(id types.NodeID, fn func(env runtime.Env)) error {
	return c.sub.Inject(id, fn)
}

// Crash stops a node entirely. A crashed client is halted too: its loop
// runs no drain again, so its later submissions are not queued.
func (c *Cluster) Crash(id types.NodeID) {
	c.sub.Crash(id)
	for _, cl := range c.clients[id] {
		cl.Halt()
	}
}

// TCP exposes the TCP substrate when Options.Transport selected it (nil
// otherwise); tests use it to reach per-node transports.
func (c *Cluster) TCP() *runtime.TCPCluster { return c.tcp }

// SCProcess returns the current SC/SCR process incarnation for id (nil
// if none), safe against a concurrent RestartNode.
func (c *Cluster) SCProcess(id types.NodeID) *core.Process {
	return c.SCProcessGroup(id, 0)
}

// SCProcessGroup returns node id's SC/SCR process for one ordering group.
func (c *Cluster) SCProcessGroup(id types.NodeID, group int) *core.Process {
	if n := c.node(id); n != nil {
		return n.Core(group)
	}
	return nil
}

// GroupCount returns the number of ordering groups (1 unless sharded).
func (c *Cluster) GroupCount() int { return c.groups }

// GroupTopo returns the rotated topology of one ordering group
// (GroupTopo(0) == Topo).
func (c *Cluster) GroupTopo(group int) (types.Topology, error) {
	if group < 0 || group >= len(c.groupTopos) {
		return types.Topology{}, fmt.Errorf("harness: group %d out of range [0, %d)", group, len(c.groupTopos))
	}
	return c.groupTopos[group], nil
}

// RecorderOf returns the recorder observing one ordering group
// (RecorderOf(0) == Events), or nil for an out-of-range group.
func (c *Cluster) RecorderOf(group int) *Recorder {
	if group < 0 || group >= len(c.recorders) {
		return nil
	}
	return c.recorders[group]
}

// injectGroup runs fn inside the event loop of node id's group-th order
// core. Group 0 works on every substrate; other groups only exist on the
// sharded TCP substrate.
func (c *Cluster) injectGroup(id types.NodeID, group int, fn func(env runtime.Env)) error {
	if c.tcp != nil {
		return c.tcp.InjectGroup(id, group, fn)
	}
	if group != 0 {
		return fmt.Errorf("harness: group %d requires the sharded TCP substrate", group)
	}
	return c.sub.Inject(id, fn)
}

// OrderState is a point-in-time snapshot of one SC/SCR order process's
// proposer gauges (observability for operators and tests).
type OrderState struct {
	// NextPropose is the primary's proposal counter; DeliveredUpTo the
	// committed-sequence watermark.
	NextPropose   types.Seq
	DeliveredUpTo types.Seq
	// InflightProposals is the proposal-window occupancy (0 outside
	// pipelined mode or at a non-primary).
	InflightProposals int
	// LastFillRatio and MeanFillRatio report batch fullness at close
	// (estimated wire bytes over MaxBatchBytes, capped at 1);
	// SizeTriggeredCloses and TimerTriggeredCloses split the closes by
	// what fired them.
	LastFillRatio        float64
	MeanFillRatio        float64
	SizeTriggeredCloses  uint64
	TimerTriggeredCloses uint64
}

// OrderStateOf snapshots an SC/SCR order process's proposer gauges. The
// snapshot is taken on the process's event loop in live mode (so the reads
// are race-free against a running cluster); in simulated mode the caller
// owns the only driving goroutine and the state is read directly.
func (c *Cluster) OrderStateOf(id types.NodeID) (OrderState, bool) {
	return c.OrderStateOfGroup(id, 0)
}

// OrderStateOfGroup snapshots the proposer gauges of node id's order
// process in one ordering group.
func (c *Cluster) OrderStateOfGroup(id types.NodeID, group int) (OrderState, bool) {
	p := c.SCProcessGroup(id, group)
	if p == nil {
		return OrderState{}, false
	}
	snap := func() OrderState {
		last, mean, sizeT, timerT := p.BatchCloseStats()
		return OrderState{
			NextPropose:          p.NextProposeSeq(),
			DeliveredUpTo:        p.MaxDelivered(),
			InflightProposals:    p.InflightProposals(),
			LastFillRatio:        last,
			MeanFillRatio:        mean,
			SizeTriggeredCloses:  sizeT,
			TimerTriggeredCloses: timerT,
		}
	}
	if !c.Opts.Live {
		return snap(), true
	}
	done := make(chan OrderState, 1)
	if err := c.injectGroup(id, group, func(runtime.Env) { done <- snap() }); err != nil {
		return OrderState{}, false
	}
	select {
	case st := <-done:
		return st, true
	case <-time.After(5 * time.Second):
		return OrderState{}, false // node stopped before running the probe
	}
}

// RecoveryState is a race-free snapshot of one SC/SCR process's catch-up
// and commit-history gauges (the scenario campaign's invariant probes).
type RecoveryState struct {
	CatchingUp    bool
	DeliveredUpTo types.Seq
	NextPropose   types.Seq
	// OrderDigest is the running committed-order chain digest (nil when
	// the process runs without a Checkpointer).
	OrderDigest []byte
}

// RecoveryStateOf snapshots id's recovery gauges on its own reactor.
func (c *Cluster) RecoveryStateOf(id types.NodeID) (RecoveryState, bool) {
	return c.RecoveryStateOfGroup(id, 0)
}

// RecoveryStateOfGroup snapshots the recovery gauges of node id's order
// process in one ordering group.
func (c *Cluster) RecoveryStateOfGroup(id types.NodeID, group int) (RecoveryState, bool) {
	p := c.SCProcessGroup(id, group)
	if p == nil {
		return RecoveryState{}, false
	}
	snap := func() RecoveryState {
		return RecoveryState{
			CatchingUp:    p.CatchingUp(),
			DeliveredUpTo: p.MaxDelivered(),
			NextPropose:   p.NextProposeSeq(),
			OrderDigest:   p.OrderDigest(),
		}
	}
	if !c.Opts.Live {
		return snap(), true
	}
	done := make(chan RecoveryState, 1)
	if err := c.injectGroup(id, group, func(runtime.Env) { done <- snap() }); err != nil {
		return RecoveryState{}, false
	}
	select {
	case st := <-done:
		return st, true
	case <-time.After(5 * time.Second):
		return RecoveryState{}, false // node stopped before running the probe
	}
}

// OrderPool returns the request pool of the current incarnation of node
// id's order process in one ordering group (nil for clients/unknown IDs).
// The pool belongs to the process's event loop: off the simulator, read
// it only from inside that loop (Inject).
func (c *Cluster) OrderPool(id types.NodeID, group int) *core.RequestPool {
	if n := c.node(id); n != nil {
		return n.Pool(group)
	}
	return nil
}

// Replica returns node id's replica in one ordering group (nil without
// Options.StateMachine, for clients, or out of range). Its accessors are
// safe against the loop executing into it.
func (c *Cluster) Replica(id types.NodeID, group int) *replica.Replica {
	if reps := c.replicas[id]; group >= 0 && group < len(reps) {
		return reps[group]
	}
	return nil
}

// Submit sends one request from client k to every order process of group
// 0 and returns its ID.
func (c *Cluster) Submit(k int, payload []byte) (message.ReqID, error) {
	return c.SubmitToGroup(k, 0, payload)
}

// SubmitToGroup sends one request from client k into one ordering group.
// The request ID is drawn from the client's single cross-group sequence
// counter, so IDs stay unique across groups.
func (c *Cluster) SubmitToGroup(k, group int, payload []byte) (message.ReqID, error) {
	id := types.ClientID(k)
	cls, ok := c.clients[id]
	if !ok {
		return message.ReqID{}, fmt.Errorf("harness: no client %d", k)
	}
	if group < 0 || group >= len(cls) {
		return message.ReqID{}, fmt.Errorf("harness: client %d has no group %d endpoint", k, group)
	}
	// The client queues the submission and the injected event is its
	// drain, a function bound once, so a submission costs no closure. An
	// injection that fails takes back its own submission, unless another
	// submission's drain has already sent it.
	cl := cls[group]
	rid := cl.Queue(payload)
	if err := c.injectGroup(id, group, cl.Drain()); err != nil && cl.Unqueue(rid) {
		return rid, err
	}
	return rid, nil
}

// InjectCoordinatorValueFault makes the acting primary behave in a
// Byzantine way: it sends its shadow an out-of-sequence signed order
// proposal, which the shadow's value-domain check rejects, producing a
// fail-signal (the Figure 6 experiment's single value-domain fault).
func (c *Cluster) InjectCoordinatorValueFault() error {
	return c.InjectValueFaultAt(1, 1)
}

// InjectValueFaultAt injects the out-of-sequence proposal at the primary
// of the given candidate rank, stamped with the given view.
func (c *Cluster) InjectValueFaultAt(rank types.Rank, view types.View) error {
	primary, shadow, paired, err := c.Topo.Candidate(rank)
	if err != nil || !paired {
		return fmt.Errorf("harness: candidate %d is not a pair: %v", rank, err)
	}
	return c.Inject(primary, func(env runtime.Env) {
		bogus := &message.OrderBatch{
			Coord:    rank,
			View:     view,
			FirstSeq: 1 << 40, // grossly out of sequence
			Primary:  primary,
			Shadow:   shadow,
			Entries: []message.OrderEntry{{
				Req:       message.ReqID{Client: types.ClientID(0), ClientSeq: 999999},
				ReqDigest: env.Digest([]byte("bogus")),
			}},
		}
		if err := message.Sign(env, bogus, &bogus.Sig1); err != nil {
			return
		}
		env.Send(shadow, bogus)
	})
}
