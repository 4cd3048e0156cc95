package ct

import (
	"errors"
	"fmt"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// Config parameterises one CT order process.
type Config struct {
	// Topo must be a CT topology (n = 2f+1).
	Topo types.Topology
	// BatchInterval and MaxBatchBytes mirror the SC batching optimization.
	BatchInterval time.Duration
	MaxBatchBytes int

	// OnBatched and OnCommit are the measurement hooks (same semantics as
	// the SC protocol's).
	OnBatched func(core.BatchEvent)
	OnCommit  func(core.CommitEvent)
}

// Process is one CT order process. The coordinator is fixed as p1.
type Process struct {
	cfg  Config
	topo types.Topology
	id   types.NodeID
	all  []types.NodeID

	pool       *core.RequestPool
	digestSize int

	nextSeq      types.Seq // coordinator: next sequence number
	batchTimer   runtime.Timer
	nextExpected types.Seq
	future       map[types.Seq]*message.OrderBatch
	trackers     map[types.Seq]*core.Tracker
	pendingAcks  map[types.Seq][]*message.Ack
	delivered    types.Seq
	committed    map[types.Seq]*core.Tracker
	trackerSlab  message.Slab[core.Tracker]
}

var _ runtime.Process = (*Process)(nil)

// New validates the configuration and returns a CT process.
func New(id types.NodeID, cfg Config) (*Process, error) {
	if cfg.Topo.Protocol != types.CT {
		return nil, fmt.Errorf("ct: topology protocol %v is not CT", cfg.Topo.Protocol)
	}
	if !cfg.Topo.IsProcess(id) {
		return nil, fmt.Errorf("ct: %v is not a process of the topology", id)
	}
	if cfg.BatchInterval <= 0 || cfg.MaxBatchBytes <= 0 {
		return nil, errors.New("ct: BatchInterval and MaxBatchBytes must be positive")
	}
	return &Process{
		cfg:          cfg,
		topo:         cfg.Topo,
		id:           id,
		all:          cfg.Topo.AllProcesses(),
		pool:         core.NewRequestPool(),
		nextSeq:      1,
		nextExpected: 1,
		future:       make(map[types.Seq]*message.OrderBatch),
		trackers:     make(map[types.Seq]*core.Tracker),
		pendingAcks:  make(map[types.Seq][]*message.Ack),
		committed:    make(map[types.Seq]*core.Tracker),
	}, nil
}

// Pool exposes the request pool.
func (p *Process) Pool() *core.RequestPool { return p.pool }

// MaxDelivered returns the highest contiguously delivered sequence number.
func (p *Process) MaxDelivered() types.Seq { return p.delivered }

func (p *Process) isCoordinator() bool {
	c, _ := p.topo.ReplicaID(1)
	return p.id == c
}

// Init implements runtime.Process.
func (p *Process) Init(env runtime.Env) {
	p.digestSize = len(env.Digest(nil))
	if p.isCoordinator() {
		p.armBatchTimer(env)
	}
}

func (p *Process) armBatchTimer(env runtime.Env) {
	p.batchTimer = env.SetTimer(p.cfg.BatchInterval, func() { p.batchTick(env) })
}

func (p *Process) batchTick(env runtime.Env) {
	defer p.armBatchTimer(env)
	reqs := p.pool.NextBatch(p.cfg.MaxBatchBytes, p.digestSize)
	if len(reqs) == 0 {
		return
	}
	batch := message.NewOrderBatch(len(reqs))
	batch.Coord, batch.View, batch.FirstSeq = 1, 1, p.nextSeq
	batch.Primary, batch.Shadow = p.id, types.Nil
	core.OrderEntries(env, batch.Entries, reqs)
	if err := message.Sign(env, batch, &batch.Sig1); err != nil {
		env.Logf("ct: signing batch: %v", err)
		return
	}
	p.nextSeq = batch.LastSeq() + 1
	if p.cfg.OnBatched != nil {
		p.cfg.OnBatched(core.BatchEvent{
			Node: p.id, View: 1, FirstSeq: batch.FirstSeq,
			Entries: batch.Entries, At: env.Now(),
		})
	}
	env.Multicast(p.all, batch)
}

// Receive implements runtime.Process.
func (p *Process) Receive(env runtime.Env, from types.NodeID, m message.Message) {
	switch m := m.(type) {
	case *message.Request:
		p.pool.Add(m)
	case *message.OrderBatch:
		p.onOrderBatch(env, m)
	case *message.Ack:
		p.onAck(env, from, m)
	default:
		// CT has no other message kinds.
	}
}

func (p *Process) onOrderBatch(env runtime.Env, b *message.OrderBatch) {
	coord, _ := p.topo.ReplicaID(1)
	if b.Primary != coord || b.Shadow != types.Nil || b.View != 1 {
		return
	}
	if _, dup := p.trackers[b.FirstSeq]; dup {
		return
	}
	switch {
	case b.FirstSeq == p.nextExpected:
		p.track(env, b)
		for {
			nb, ok := p.future[p.nextExpected]
			if !ok {
				break
			}
			delete(p.future, nb.FirstSeq)
			p.track(env, nb)
		}
	case b.FirstSeq > p.nextExpected:
		p.future[b.FirstSeq] = b
	}
}

func (p *Process) track(env runtime.Env, b *message.OrderBatch) {
	if err := b.VerifySigs(env); err != nil {
		env.Logf("ct: rejecting batch %d: %v", b.FirstSeq, err)
		return
	}
	t := core.NewBatchTracker(&p.trackerSlab, b, env.ScratchDigest(b.SignedBody()))
	p.trackers[b.FirstSeq] = t
	p.nextExpected = b.LastSeq() + 1
	for _, e := range b.Entries {
		p.pool.MarkOrdered(e.Req)
	}
	// N1: multicast ack (CT uses no signatures when run with the None
	// suite, but the message flow is identical to SC's).
	ack := &message.Ack{
		From: p.id, Kind: message.SubjectBatch, View: b.View, FirstSeq: b.FirstSeq,
		SubjectDigest: t.Digest, Subject: b.Marshal(),
	}
	if err := message.Sign(env, ack, &ack.Sig); err != nil {
		env.Logf("ct: signing ack: %v", err)
		return
	}
	t.AckSent = true
	env.Multicast(p.all, ack)
	for _, a := range p.pendingAcks[b.FirstSeq] {
		if t.Matches(a) {
			t.Credit(a.From, a.Sig)
		}
	}
	delete(p.pendingAcks, b.FirstSeq)
	p.checkQuorum(env, t)
}

func (p *Process) onAck(env runtime.Env, from types.NodeID, a *message.Ack) {
	if a.From != from {
		return
	}
	if err := a.VerifySig(env); err != nil {
		env.Logf("ct: bad ack: %v", err)
		return
	}
	t := p.trackers[a.FirstSeq]
	if t == nil || !t.Matches(a) {
		// Learn the order from the ack, as in SC.
		if len(a.Subject) > 0 {
			if inner, err := message.Decode(a.Subject); err == nil {
				if b, ok := inner.(*message.OrderBatch); ok {
					p.onOrderBatch(env, b)
					t = p.trackers[a.FirstSeq]
				}
			}
		}
	}
	if t == nil || !t.Matches(a) {
		if len(p.pendingAcks[a.FirstSeq]) < 64 {
			p.pendingAcks[a.FirstSeq] = append(p.pendingAcks[a.FirstSeq], a)
		}
		return
	}
	t.Credit(a.From, a.Sig)
	p.checkQuorum(env, t)
}

func (p *Process) checkQuorum(env runtime.Env, t *core.Tracker) {
	if t.Committed || !t.AckSent {
		return
	}
	if t.Count(nil) < p.topo.Quorum() {
		return
	}
	t.Committed = true
	p.committed[t.FirstSeq] = t
	for {
		nt, ok := p.committed[p.delivered+1]
		if !ok || !nt.Committed {
			return
		}
		p.delivered = nt.Batch.LastSeq()
		if p.cfg.OnCommit != nil {
			p.cfg.OnCommit(core.CommitEvent{
				Node: p.id, View: nt.View, Kind: nt.Kind,
				FirstSeq: nt.FirstSeq, LastSeq: nt.Batch.LastSeq(),
				Entries: nt.Batch.Entries, At: env.Now(),
			})
		}
	}
}
