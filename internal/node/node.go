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
	BatchIdleArm       time.Duration
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
		BatchIdleArm:        s.BatchIdleArm,
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
	var rep *replier
	if len(s.ReplyTo) > 0 {
		rep = &replier{to: s.ReplyTo, next: h.OnCommit}
		h.OnCommit = rep.onCommit
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
	if rep != nil {
		rep.Process = p
		p = rep
	}
	n.Procs = append(n.Procs, p)
	return nil
}

// replier is an order process that also answers its clients: for every
// committed entry of a client in its reply-to set it signs a Reply and
// sends it through the process's own Env, so the reply costs what any
// other message of the process costs on every substrate and carries the
// substrate's addressing (the sharded group prefix among it).
type replier struct {
	runtime.Process
	env  runtime.Env // the process's own, for its whole life
	to   map[types.NodeID]bool
	next func(core.CommitEvent)
}

// Init implements runtime.Process: commits are raised on the event loop
// Init opens, never ahead of it.
func (r *replier) Init(env runtime.Env) {
	r.env = env
	r.Process.Init(env)
}

func (r *replier) onCommit(ev core.CommitEvent) {
	if r.next != nil {
		r.next(ev)
	}
	for i := range ev.Entries {
		req := ev.Entries[i].Req
		if !r.to[req.Client] {
			continue
		}
		rep := &message.Reply{
			From: ev.Node, Client: req.Client, ClientSeq: req.ClientSeq,
			Seq: ev.FirstSeq + types.Seq(i),
		}
		if err := message.Sign(r.env, rep, &rep.Sig); err != nil {
			r.env.Logf("node: signing reply: %v", err)
			continue
		}
		r.env.Send(req.Client, rep)
	}
}

// order returns group g's order process (beneath its replier, if any), or
// nil out of range.
func (n *Node) order(group int) runtime.Process {
	if group < 0 || group >= len(n.Procs) {
		return nil
	}
	if r, ok := n.Procs[group].(*replier); ok {
		return r.Process
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
	if p, ok := n.order(group).(interface{ Pool() *core.RequestPool }); ok {
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
	if s.Groups == 1 {
		return runtime.NewTCPNode(s.Self, addr, s.Idents[s.Self], procs[0], peers, s.Logger, opts)
	}
	return runtime.NewShardedTCPNode(s.Self, addr, s.Idents[s.Self], procs, peers, s.Logger, opts)
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
