package node

import (
	"crypto/tls"
	"fmt"
	"log"
	"net"
	"path/filepath"
	"sync"
	"time"

	"github.com/sof-repro/sof/internal/bft"
	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/ct"
	"github.com/sof-repro/sof/internal/fsp"
	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/replica"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/session"
	"github.com/sof-repro/sof/internal/tcpnet"
	"github.com/sof-repro/sof/internal/types"
	"github.com/sof-repro/sof/internal/wal/protolog"
	"github.com/sof-repro/sof/internal/wal/sessionlog"
)

// Hooks are one ordering group's event callbacks. CT and BFT processes
// raise OnBatched and OnCommit only.
type Hooks struct {
	OnBatched           func(core.BatchEvent)
	OnCommit            func(core.CommitEvent)
	OnFailSignal        func(core.FailSignalEvent)
	OnInstalled         func(core.InstallEvent)
	OnStartTuplesIssued func(core.InstallEvent)
	OnPairRecovered     func(core.InstallEvent)
}

// Spec describes one physical node. The knob fields reach core.Config
// (ct.Config, bft.Config) verbatim: defaults are the caller's business.
type Spec struct {
	// Self is the node. When it is not an order process of Topo (a client
	// endpoint) the node hosts no processes of its own and only its
	// session journal and transport options are assembled.
	Self     types.NodeID
	Protocol types.Protocol
	// Topo is the physical, unrotated topology; group g orders over
	// Topo.Rotated(g).
	Topo   types.Topology
	Groups int
	Idents map[types.NodeID]*crypto.Identity

	BatchInterval      time.Duration
	MaxBatchBytes      int
	Delta              time.Duration
	ViewChangeTimeout  time.Duration // BFT
	Mirror             bool
	DumbOptimization   bool // applied under SC only: unsound under SCR
	PadBacklogBytes    int
	RecoveryInterval   time.Duration // SCR
	CheckpointInterval int
	MaxInflightBatches int
	DigestOnlyAcks     bool
	Ingress            ingress.Config

	// DataDir is this node's own directory for durable state ("" = none):
	// the session journal in <DataDir>/session when Links is set, and per
	// SC/SCR order process a protocol-checkpoint store in <DataDir>/proto
	// (<DataDir>/g<i>/proto when Groups > 1) unless CheckpointInterval is
	// negative. Both group-commit on BatchInterval.
	DataDir string

	// Links upgrades the transport to authenticated sessions (nil = plain
	// frames); Resume and RingLen are the session's replay settings.
	Links   *crypto.LinkKeys
	Resume  bool
	RingLen int
	// TLSServer and TLSClient wrap every connection when set.
	TLSServer, TLSClient *tls.Config
	// Shape imposes simulated link conditions on outbound traffic.
	Shape func(to types.NodeID, size int) (time.Duration, bool)

	// Registry receives every layer's instruments (nil = metrics off).
	Registry *obs.Registry
	Logger   *log.Logger
	// Hooks returns group g's callbacks (nil = none).
	Hooks func(group int) Hooks
	// Replicas[g], when present and non-nil, executes group g's commits on
	// that group's order process's event loop, before Hooks hears of them.
	Replicas []*replica.Replica
	// ReplyTo names the clients whose committed requests this node answers
	// with a signed Reply (sofnode's -clients). Empty means no node signs
	// or sends anything for a commit beyond the protocol's own messages.
	ReplyTo map[types.NodeID]bool
	// Tap, when non-nil, intercepts the group-0 SC/SCR process's outbound
	// traffic (adversarial twins).
	Tap core.Tap
}

// Labels is the label set of node id's instruments for one ordering
// group: node always, group only when the deployment is sharded, so a
// single-group deployment's series carry no group label anywhere.
func Labels(id types.NodeID, group, groups int) []obs.Label {
	labels := []obs.Label{obs.L("node", fmt.Sprint(id))}
	if groups > 1 {
		labels = append(labels, obs.L("group", fmt.Sprint(group)))
	}
	return labels
}

// Node is one assembled node: its processes and the durable stores they
// and the transport write to.
type Node struct {
	spec Spec
	// Procs holds one order process per group (empty for a client
	// endpoint).
	Procs []runtime.Process

	session *sessionlog.Store
	proto   []*protolog.Store

	mu     sync.Mutex
	closed bool
}

// Build opens the node's stores and constructs its processes. On error
// everything already opened is closed again.
func Build(spec Spec) (*Node, error) {
	n := &Node{spec: spec}
	if spec.Links != nil && spec.DataDir != "" {
		st, err := sessionlog.Open(sessionlog.Options{
			Dir:           filepath.Join(spec.DataDir, "session"),
			SyncInterval:  spec.BatchInterval,
			RingLen:       spec.RingLen,
			Logger:        spec.Logger,
			Metrics:       spec.Registry,
			MetricsLabels: Labels(spec.Self, 0, 1),
		})
		if err != nil {
			return nil, err
		}
		n.session = st
	}
	if !spec.Topo.IsProcess(spec.Self) {
		return n, nil
	}
	for g := 0; g < spec.Groups; g++ {
		if err := n.buildProcess(g); err != nil {
			n.Close()
			return nil, err
		}
	}
	return n, nil
}

// CoreConfig is group g's SC/SCR process configuration as the spec
// determines it; Build adds what it opens or signs (Checkpointer,
// PresignedFailSig).
func (s Spec) CoreConfig(group int) core.Config {
	h := s.hooks(group)
	cfg := core.Config{
		Topo:                s.Topo.Rotated(group),
		BatchInterval:       s.BatchInterval,
		MaxBatchBytes:       s.MaxBatchBytes,
		Delta:               s.Delta,
		Mirror:              s.Mirror,
		DumbOptimization:    s.DumbOptimization && s.Protocol == types.SC,
		PadBacklogBytes:     s.PadBacklogBytes,
		RecoveryInterval:    s.RecoveryInterval,
		CheckpointInterval:  s.CheckpointInterval,
		MaxInflightBatches:  s.MaxInflightBatches,
		DigestOnlyAcks:      s.DigestOnlyAcks,
		Ingress:             s.Ingress,
		OnBatched:           h.OnBatched,
		OnCommit:            h.OnCommit,
		OnFailSignal:        h.OnFailSignal,
		OnInstalled:         h.OnInstalled,
		OnStartTuplesIssued: h.OnStartTuplesIssued,
		OnPairRecovered:     h.OnPairRecovered,
		Metrics:             s.Registry,
		MetricsLabels:       Labels(s.Self, group, s.Groups),
	}
	if group == 0 {
		cfg.Tap = s.Tap
	}
	return cfg
}

func (s Spec) hooks(group int) Hooks {
	if s.Hooks == nil {
		return Hooks{}
	}
	return s.Hooks(group)
}

func (n *Node) buildProcess(group int) error {
	s := n.spec
	h := s.hooks(group)
	var rep *replica.Replica
	if group < len(s.Replicas) {
		rep = s.Replicas[group]
	}
	var ex *executor
	if rep != nil || len(s.ReplyTo) > 0 {
		ex = &executor{rep: rep, to: s.ReplyTo, next: h.OnCommit}
		h.OnCommit = ex.onCommit
	}
	var p runtime.Process
	var err error
	switch s.Protocol {
	case types.SC, types.SCR:
		cfg := s.CoreConfig(group)
		cfg.OnCommit = h.OnCommit
		// Durable protocol checkpoints: the process snapshots its view,
		// watermark and committed-order digest to its own store, and a
		// restarted node restores the snapshot and catches up from its
		// peers. Two groups never share a segment directory.
		if s.DataDir != "" && s.CheckpointInterval >= 0 {
			dir := filepath.Join(s.DataDir, "proto")
			if s.Groups > 1 {
				dir = filepath.Join(s.DataDir, fmt.Sprintf("g%d", group), "proto")
			}
			st, err := protolog.Open(protolog.Options{
				Dir:           dir,
				SyncInterval:  s.BatchInterval,
				Logger:        s.Logger,
				Metrics:       s.Registry,
				MetricsLabels: cfg.MetricsLabels,
			})
			if err != nil {
				return err
			}
			n.proto = append(n.proto, st)
			cfg.Checkpointer = st
		}
		if counterpart, paired := cfg.Topo.PairOf(s.Self); paired {
			pre, err := fsp.PresignFor(s.Idents[counterpart],
				types.Rank(cfg.Topo.PairIndex(s.Self)), 0, counterpart)
			if err != nil {
				return err
			}
			cfg.PresignedFailSig = pre
		}
		p, err = core.New(s.Self, cfg)
	case types.CT:
		p, err = ct.New(s.Self, ct.Config{
			Topo:          s.Topo,
			BatchInterval: s.BatchInterval,
			MaxBatchBytes: s.MaxBatchBytes,
			OnBatched:     h.OnBatched,
			OnCommit:      h.OnCommit,
		})
	case types.BFT:
		p, err = bft.New(s.Self, bft.Config{
			Topo:              s.Topo,
			BatchInterval:     s.BatchInterval,
			MaxBatchBytes:     s.MaxBatchBytes,
			ViewChangeTimeout: s.ViewChangeTimeout,
			OnBatched:         h.OnBatched,
			OnCommit:          h.OnCommit,
		})
	default:
		err = fmt.Errorf("node: protocol %v not wired", s.Protocol)
	}
	if err != nil {
		return err
	}
	if ex != nil {
		ex.Process, ex.pool = p, p.(pooled).Pool()
		p = ex
	}
	n.Procs = append(n.Procs, p)
	return nil
}

// pooled is what every order process is: the holder of a request pool.
type pooled interface{ Pool() *core.RequestPool }

// executor is an order process that acts on what it commits, on its own
// event loop: it applies each commit to its replica (resolving payloads
// from the process's own pool, which only this loop touches), answers the
// clients in its reply-to set with a signed Reply sent through the
// process's own Env — so a reply costs what any other message of the
// process costs on every substrate and carries the substrate's addressing,
// the sharded group prefix among it — and only then hands the commit on
// to the hooks, so whoever hears of a commit finds it executed there.
type executor struct {
	runtime.Process
	pool *core.RequestPool
	rep  *replica.Replica // nil: replies only
	env  runtime.Env      // the process's own, for its whole life
	to   map[types.NodeID]bool
	next func(core.CommitEvent)
}

// Init implements runtime.Process: commits are raised on the event loop
// Init opens, never ahead of it.
func (x *executor) Init(env runtime.Env) {
	x.env = env
	x.Process.Init(env)
}

// Receive implements runtime.Process. A payload can arrive after its
// commit — by mirror, fetch, catch-up or the client's own copy — so while
// the replica holds commits it could not apply, every delivery retries
// them.
func (x *executor) Receive(env runtime.Env, from types.NodeID, m message.Message) {
	x.Process.Receive(env, from, m)
	if x.rep != nil && x.rep.PendingCount() > 0 {
		x.rep.Retry(x.pool)
	}
}

func (x *executor) onCommit(ev core.CommitEvent) {
	if x.rep != nil {
		x.rep.HandleCommit(x.pool, ev)
	}
	for i := range ev.Entries {
		req := ev.Entries[i].Req
		if !x.to[req.Client] {
			continue
		}
		rep := &message.Reply{
			From: ev.Node, Client: req.Client, ClientSeq: req.ClientSeq,
			Seq: ev.FirstSeq + types.Seq(i),
		}
		if err := message.Sign(x.env, rep, &rep.Sig); err != nil {
			x.env.Logf("node: signing reply: %v", err)
			continue
		}
		x.env.Send(req.Client, rep)
	}
	if x.next != nil {
		x.next(ev)
	}
}

// order returns group g's order process (beneath its executor, if any),
// or nil out of range.
func (n *Node) order(group int) runtime.Process {
	if group < 0 || group >= len(n.Procs) {
		return nil
	}
	if x, ok := n.Procs[group].(*executor); ok {
		return x.Process
	}
	return n.Procs[group]
}

// Core returns group g's SC/SCR process (nil under CT/BFT, for a client
// endpoint, or out of range).
func (n *Node) Core(group int) *core.Process {
	p, _ := n.order(group).(*core.Process)
	return p
}

// Pool returns the request pool of group g's order process (nil when the
// node hosts none).
func (n *Node) Pool(group int) *core.RequestPool {
	if p, ok := n.order(group).(pooled); ok {
		return p.Pool()
	}
	return nil
}

// TCPOptions is the node's transport configuration: its session config
// (sharing the deployment's link keys, owning its own journal), TLS,
// link shaping and registry.
func (n *Node) TCPOptions() tcpnet.Options {
	s := n.spec
	o := tcpnet.Options{
		TLSServer: s.TLSServer,
		TLSClient: s.TLSClient,
		Shape:     s.Shape,
		Metrics:   s.Registry,
	}
	if s.Links != nil {
		cfg := &session.Config{Keys: s.Links, Resume: s.Resume, RingLen: s.RingLen}
		if n.session != nil {
			cfg.Journal = n.session
		}
		o.Session = cfg
	}
	return o
}

// Listen binds the node's TCP endpoint on addr — or adopts ln, when the
// caller had to know the address first — hosting procs: the node's own
// order processes, or a client endpoint's reactors. One group speaks the
// plain wire format, more the group-prefixed one.
func (n *Node) Listen(addr string, ln net.Listener, procs []runtime.Process,
	peers map[types.NodeID]string) (*runtime.TCPNode, error) {
	s, opts := n.spec, n.TCPOptions()
	opts.Listener = ln
	return runtime.NewTCPNode(s.Self, addr, s.Idents[s.Self], procs, peers, s.Logger, opts)
}

// Ready is the readiness check: nil when no hosted group is still
// catching up after a restart AND, given the node's transport, it holds
// live connections to a majority of the order processes (itself
// included). It reads one atomic per group and transport state — never
// the event loop, and never a metrics registry, so it holds with metrics
// off. A nil transport (a substrate without connections) skips the
// connectivity half.
func (n *Node) Ready(tr *tcpnet.Transport) error {
	for g := range n.Procs {
		if p := n.Core(g); p != nil && p.CatchingUp() {
			return fmt.Errorf("group %d catching up", g)
		}
	}
	if tr == nil {
		return nil
	}
	connected := 0
	for _, peer := range tr.ConnectedPeers() {
		if n.spec.Topo.IsProcess(peer) {
			connected++
		}
	}
	if total := n.spec.Topo.N(); 2*(connected+1) <= total {
		return fmt.Errorf("connected to %d of %d other order processes", connected, total-1)
	}
	return nil
}

// Sync forces a group commit of the node's stores.
func (n *Node) Sync() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	if n.session != nil {
		if err := n.session.Sync(); err != nil {
			return err
		}
	}
	for _, st := range n.proto {
		if err := st.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes the node's stores, so a clean shutdown loses
// nothing; failures are logged, the rest still closes.
func (n *Node) Close() { n.release(false) }

// Crash drops the stores without a flush — what a process death does:
// records since the last group commit are lost.
func (n *Node) Crash() { n.release(true) }

func (n *Node) release(crash bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	if n.session != nil {
		if crash {
			n.session.Crash()
		} else if err := n.session.Close(); err != nil {
			n.logf("closing session journal: %v", err)
		}
	}
	for _, st := range n.proto {
		if crash {
			st.Crash()
		} else if err := st.Close(); err != nil {
			n.logf("closing checkpoint store: %v", err)
		}
	}
}

func (n *Node) logf(format string, args ...any) {
	if n.spec.Logger != nil {
		n.spec.Logger.Printf("node %v: %s", n.spec.Self, fmt.Sprintf(format, args...))
	}
}
