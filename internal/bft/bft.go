package bft

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// Config parameterises one BFT replica.
type Config struct {
	// Topo must be a BFT topology (n = 3f+1).
	Topo types.Topology
	// BatchInterval and MaxBatchBytes mirror the SC batching optimization.
	BatchInterval time.Duration
	MaxBatchBytes int
	// ViewChangeTimeout is how long a backup waits for a known request to
	// commit before voting the primary out.
	ViewChangeTimeout time.Duration

	// Measurement hooks (shared event types with the SC protocol).
	OnBatched    func(core.BatchEvent)
	OnCommit     func(core.CommitEvent)
	OnViewChange func(view types.View, node types.NodeID, at time.Time)
}

// instance is the per-batch three-phase state.
type instance struct {
	pp       *message.PrePrepare
	digest   []byte
	prepares map[types.NodeID]crypto.Signature // distinct non-primary preparers
	commits  map[types.NodeID]bool
	prepared bool
	cSent    bool
	done     bool
}

// Process is one BFT replica.
type Process struct {
	cfg  Config
	topo types.Topology
	id   types.NodeID
	all  []types.NodeID

	pool       *core.RequestPool
	digestSize int

	view         types.View
	inViewChange bool

	nextSeq      types.Seq
	batchTimer   runtime.Timer
	nextExpected types.Seq
	future       map[types.Seq]*message.PrePrepare
	insts        map[types.Seq]*instance
	pendingPrep  map[types.Seq][]*message.Prepare
	pendingCom   map[types.Seq][]*message.Commit
	delivered    types.Seq

	vcTimer     runtime.Timer
	viewChanges map[types.View]map[types.NodeID]*message.BFTViewChange
}

var _ runtime.Process = (*Process)(nil)

// New validates the configuration and returns a BFT replica.
func New(id types.NodeID, cfg Config) (*Process, error) {
	if cfg.Topo.Protocol != types.BFT {
		return nil, fmt.Errorf("bft: topology protocol %v is not BFT", cfg.Topo.Protocol)
	}
	if !cfg.Topo.IsProcess(id) {
		return nil, fmt.Errorf("bft: %v is not a process of the topology", id)
	}
	if cfg.BatchInterval <= 0 || cfg.MaxBatchBytes <= 0 {
		return nil, errors.New("bft: BatchInterval and MaxBatchBytes must be positive")
	}
	if cfg.ViewChangeTimeout <= 0 {
		cfg.ViewChangeTimeout = 10 * time.Second
	}
	return &Process{
		cfg:          cfg,
		topo:         cfg.Topo,
		id:           id,
		all:          cfg.Topo.AllProcesses(),
		pool:         core.NewRequestPool(),
		view:         1,
		nextSeq:      1,
		nextExpected: 1,
		future:       make(map[types.Seq]*message.PrePrepare),
		insts:        make(map[types.Seq]*instance),
		pendingPrep:  make(map[types.Seq][]*message.Prepare),
		pendingCom:   make(map[types.Seq][]*message.Commit),
		viewChanges:  make(map[types.View]map[types.NodeID]*message.BFTViewChange),
	}, nil
}

// Pool exposes the request pool.
func (p *Process) Pool() *core.RequestPool { return p.pool }

// View returns the current view number.
func (p *Process) View() types.View { return p.view }

// MaxDelivered returns the highest contiguously delivered sequence number.
func (p *Process) MaxDelivered() types.Seq { return p.delivered }

// primaryOf returns the primary replica of a view.
func (p *Process) primaryOf(v types.View) types.NodeID {
	rank := p.topo.CandidateForView(v)
	return types.NodeID(int(rank) - 1)
}

func (p *Process) isPrimary() bool { return p.primaryOf(p.view) == p.id && !p.inViewChange }

// Init implements runtime.Process.
func (p *Process) Init(env runtime.Env) {
	p.digestSize = len(env.Digest(nil))
	if p.isPrimary() {
		p.armBatchTimer(env)
	}
}

func (p *Process) armBatchTimer(env runtime.Env) {
	if p.batchTimer != nil {
		p.batchTimer.Stop()
	}
	p.batchTimer = env.SetTimer(p.cfg.BatchInterval, func() { p.batchTick(env) })
}

func (p *Process) batchTick(env runtime.Env) {
	if !p.isPrimary() {
		return
	}
	defer p.armBatchTimer(env)
	reqs := p.pool.NextBatch(p.cfg.MaxBatchBytes, p.digestSize)
	if len(reqs) == 0 {
		return
	}
	pp := &message.PrePrepare{View: p.view, FirstSeq: p.nextSeq, Primary: p.id,
		Entries: make([]message.OrderEntry, len(reqs))}
	core.OrderEntries(env, pp.Entries, reqs)
	if err := message.Sign(env, pp, &pp.Sig); err != nil {
		env.Logf("bft: signing pre-prepare: %v", err)
		return
	}
	p.nextSeq = pp.LastSeq() + 1
	if p.cfg.OnBatched != nil {
		p.cfg.OnBatched(core.BatchEvent{
			Node: p.id, View: p.view, FirstSeq: pp.FirstSeq,
			Entries: pp.Entries, At: env.Now(),
		})
	}
	env.Multicast(p.all, pp)
}

// Receive implements runtime.Process.
func (p *Process) Receive(env runtime.Env, from types.NodeID, m message.Message) {
	switch m := m.(type) {
	case *message.Request:
		p.onRequest(env, m)
	case *message.PrePrepare:
		p.onPrePrepare(env, m)
	case *message.Prepare:
		p.onPrepare(env, from, m)
	case *message.Commit:
		p.onCommit(env, from, m)
	case *message.BFTViewChange:
		p.onViewChange(env, from, m)
	case *message.BFTNewView:
		p.onNewView(env, from, m)
	default:
	}
}

func (p *Process) onRequest(env runtime.Env, req *message.Request) {
	if !p.pool.Add(req) {
		return
	}
	// A backup that knows an unordered request expects it to commit before
	// the view-change timeout.
	if !p.isPrimary() && p.vcTimer == nil && !p.inViewChange {
		p.armViewChangeTimer(env)
	}
}

func (p *Process) armViewChangeTimer(env runtime.Env) {
	v := p.view
	p.vcTimer = env.SetTimer(p.cfg.ViewChangeTimeout, func() {
		p.vcTimer = nil
		if p.view != v || p.inViewChange {
			return
		}
		if p.pool.PendingCount() == 0 {
			return
		}
		p.startViewChange(env, p.view+1)
	})
}

func (p *Process) onPrePrepare(env runtime.Env, pp *message.PrePrepare) {
	if p.inViewChange || pp.View != p.view || pp.Primary != p.primaryOf(p.view) {
		return
	}
	if _, dup := p.insts[pp.FirstSeq]; dup {
		return
	}
	switch {
	case pp.FirstSeq == p.nextExpected:
		if p.acceptPrePrepare(env, pp) {
			for {
				next, ok := p.future[p.nextExpected]
				if !ok {
					break
				}
				delete(p.future, next.FirstSeq)
				if !p.acceptPrePrepare(env, next) {
					break
				}
			}
		}
	case pp.FirstSeq > p.nextExpected:
		p.future[pp.FirstSeq] = pp
	}
}

func (p *Process) acceptPrePrepare(env runtime.Env, pp *message.PrePrepare) bool {
	if err := pp.VerifySig(env); err != nil {
		env.Logf("bft: rejecting pre-prepare %d: %v", pp.FirstSeq, err)
		return false
	}
	inst := &instance{
		pp:       pp,
		digest:   pp.BodyDigest(env),
		prepares: make(map[types.NodeID]crypto.Signature),
		commits:  make(map[types.NodeID]bool),
	}
	p.insts[pp.FirstSeq] = inst
	p.nextExpected = pp.LastSeq() + 1
	for _, e := range pp.Entries {
		p.pool.MarkOrdered(e.Req)
	}
	// Backups multicast a prepare; the primary's pre-prepare stands in for
	// its prepare.
	if p.id != pp.Primary {
		prep := &message.Prepare{From: p.id, View: pp.View, FirstSeq: pp.FirstSeq, BatchDigest: inst.digest}
		if err := message.Sign(env, prep, &prep.Sig); err != nil {
			env.Logf("bft: signing prepare: %v", err)
			return false
		}
		inst.prepares[p.id] = prep.Sig
		env.Multicast(p.all, prep)
	}
	for _, m := range p.pendingPrep[pp.FirstSeq] {
		p.onPrepare(env, m.From, m)
	}
	delete(p.pendingPrep, pp.FirstSeq)
	for _, m := range p.pendingCom[pp.FirstSeq] {
		p.onCommit(env, m.From, m)
	}
	delete(p.pendingCom, pp.FirstSeq)
	p.checkPrepared(env, inst)
	return true
}

func (p *Process) onPrepare(env runtime.Env, from types.NodeID, prep *message.Prepare) {
	if prep.From != from || prep.View != p.view || p.inViewChange {
		return
	}
	if from == p.primaryOf(p.view) {
		return // the primary does not prepare
	}
	inst, ok := p.insts[prep.FirstSeq]
	if !ok {
		if len(p.pendingPrep[prep.FirstSeq]) < 64 {
			p.pendingPrep[prep.FirstSeq] = append(p.pendingPrep[prep.FirstSeq], prep)
		}
		return
	}
	if !bytes.Equal(prep.BatchDigest, inst.digest) {
		return
	}
	if _, dup := inst.prepares[from]; dup {
		return
	}
	if err := prep.VerifySig(env); err != nil {
		env.Logf("bft: bad prepare from %v: %v", from, err)
		return
	}
	inst.prepares[from] = prep.Sig
	p.checkPrepared(env, inst)
}

// checkPrepared: prepared(i) holds with the pre-prepare plus 2f matching
// prepares from distinct non-primary replicas; a prepared replica
// multicasts its commit.
func (p *Process) checkPrepared(env runtime.Env, inst *instance) {
	if inst.prepared || len(inst.prepares) < 2*p.topo.F {
		return
	}
	inst.prepared = true
	com := &message.Commit{From: p.id, View: inst.pp.View, FirstSeq: inst.pp.FirstSeq, BatchDigest: inst.digest}
	if err := message.Sign(env, com, &com.Sig); err != nil {
		env.Logf("bft: signing commit: %v", err)
		return
	}
	inst.cSent = true
	inst.commits[p.id] = true
	env.Multicast(p.all, com)
	p.checkCommitted(env, inst)
}

func (p *Process) onCommit(env runtime.Env, from types.NodeID, com *message.Commit) {
	if com.From != from || com.View != p.view || p.inViewChange {
		return
	}
	inst, ok := p.insts[com.FirstSeq]
	if !ok {
		if len(p.pendingCom[com.FirstSeq]) < 64 {
			p.pendingCom[com.FirstSeq] = append(p.pendingCom[com.FirstSeq], com)
		}
		return
	}
	if !bytes.Equal(com.BatchDigest, inst.digest) || inst.commits[from] {
		return
	}
	if err := com.VerifySig(env); err != nil {
		env.Logf("bft: bad commit from %v: %v", from, err)
		return
	}
	inst.commits[from] = true
	p.checkCommitted(env, inst)
}

// checkCommitted: committed-local holds when prepared and 2f+1 distinct
// commits (including our own) are in hand. Delivery is contiguous.
func (p *Process) checkCommitted(env runtime.Env, inst *instance) {
	if inst.done || !inst.prepared || len(inst.commits) < 2*p.topo.F+1 {
		return
	}
	inst.done = true
	for {
		next, ok := p.insts[p.delivered+1]
		if !ok || !next.done {
			break
		}
		p.delivered = next.pp.LastSeq()
		if p.cfg.OnCommit != nil {
			p.cfg.OnCommit(core.CommitEvent{
				Node: p.id, View: next.pp.View, Kind: message.SubjectBatch,
				FirstSeq: next.pp.FirstSeq, LastSeq: next.pp.LastSeq(),
				Entries: next.pp.Entries, At: env.Now(),
			})
		}
	}
	// Progress discharges the view-change timer; re-arm if work remains.
	if p.vcTimer != nil {
		p.vcTimer.Stop()
		p.vcTimer = nil
	}
	if p.pool.PendingCount() > 0 && !p.isPrimary() && !p.inViewChange {
		p.armViewChangeTimer(env)
	}
}
