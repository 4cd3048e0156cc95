package bft

import (
	"sort"

	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// This file implements the (simplified, checkpoint-free) BFT view change:
// a backup that times out on an uncommitted request multicasts a
// view-change message with its prepared certificates; the new primary
// assembles 2f+1 of them into a new-view message that re-issues the
// prepared batches in the new view.

func (p *Process) startViewChange(env runtime.Env, v types.View) {
	if v <= p.view {
		return
	}
	p.inViewChange = true
	if p.batchTimer != nil {
		p.batchTimer.Stop()
		p.batchTimer = nil
	}
	if p.vcTimer != nil {
		p.vcTimer.Stop()
		p.vcTimer = nil
	}
	vc := &message.BFTViewChange{From: p.id, NewView: v, LastStable: p.delivered}
	for _, inst := range p.insts {
		if inst.prepared && !inst.done && inst.pp.FirstSeq > p.delivered {
			cert := &message.PreparedCert{PrePrepare: inst.pp}
			for from, sig := range inst.prepares {
				cert.Preparers = append(cert.Preparers, from)
				cert.Sigs = append(cert.Sigs, sig)
			}
			vc.Prepared = append(vc.Prepared, cert)
		}
	}
	sort.Slice(vc.Prepared, func(i, j int) bool {
		return vc.Prepared[i].PrePrepare.FirstSeq < vc.Prepared[j].PrePrepare.FirstSeq
	})
	if err := message.Sign(env, vc, &vc.Sig); err != nil {
		env.Logf("bft: signing view-change: %v", err)
		return
	}
	if p.cfg.OnViewChange != nil {
		p.cfg.OnViewChange(v, p.id, env.Now())
	}
	env.Multicast(p.all, vc)
}

func (p *Process) onViewChange(env runtime.Env, from types.NodeID, vc *message.BFTViewChange) {
	if vc.From != from || vc.NewView <= p.view {
		return
	}
	if err := vc.VerifySig(env); err != nil {
		env.Logf("bft: bad view-change from %v: %v", from, err)
		return
	}
	for _, cert := range vc.Prepared {
		if err := cert.Verify(env, 2*p.topo.F); err != nil {
			env.Logf("bft: bad prepared cert from %v: %v", from, err)
			return
		}
	}
	set := p.viewChanges[vc.NewView]
	if set == nil {
		set = make(map[types.NodeID]*message.BFTViewChange)
		p.viewChanges[vc.NewView] = set
	}
	if _, dup := set[from]; dup {
		return
	}
	set[from] = vc

	// Joining rule: once f+1 replicas vote for a higher view, join them
	// (prevents a slow replica from stalling the change). Our own vote
	// reaches the set through self-delivery of the multicast.
	if len(set) > p.topo.F && !p.inViewChange {
		p.startViewChange(env, vc.NewView)
	}
	// The designated new primary assembles the new view from 2f+1 votes.
	if p.primaryOf(vc.NewView) == p.id && len(set) >= 2*p.topo.F+1 {
		p.sendNewView(env, vc.NewView, set)
	}
}

func (p *Process) sendNewView(env runtime.Env, v types.View, set map[types.NodeID]*message.BFTViewChange) {
	if p.view >= v {
		return
	}
	// Collect the highest prepared certificate per sequence number across
	// the view-change messages and re-issue those batches in view v.
	best := make(map[types.Seq]*message.PreparedCert)
	for _, vc := range set {
		for _, cert := range vc.Prepared {
			seq := cert.PrePrepare.FirstSeq
			cur, ok := best[seq]
			if !ok || cert.PrePrepare.View > cur.PrePrepare.View {
				best[seq] = cert
			}
		}
	}
	seqs := make([]types.Seq, 0, len(best))
	for s := range best {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	nv := &message.BFTNewView{View: v, Primary: p.id}
	froms := make([]types.NodeID, 0, len(set))
	for id := range set {
		froms = append(froms, id)
	}
	sort.Slice(froms, func(i, j int) bool { return froms[i] < froms[j] })
	for _, id := range froms {
		nv.ViewChanges = append(nv.ViewChanges, set[id].Marshal())
	}
	for _, s := range seqs {
		old := best[s].PrePrepare
		repp := &message.PrePrepare{View: v, FirstSeq: old.FirstSeq, Entries: old.Entries, Primary: p.id}
		if err := message.Sign(env, repp, &repp.Sig); err != nil {
			env.Logf("bft: signing re-issued pre-prepare: %v", err)
			return
		}
		nv.PrePrepares = append(nv.PrePrepares, repp)
	}
	if err := message.Sign(env, nv, &nv.Sig); err != nil {
		env.Logf("bft: signing new-view: %v", err)
		return
	}
	env.Multicast(p.all, nv)
}

func (p *Process) onNewView(env runtime.Env, from types.NodeID, nv *message.BFTNewView) {
	if nv.View <= p.view {
		return
	}
	if nv.Primary != p.primaryOf(nv.View) {
		return
	}
	if err := nv.VerifySig(env); err != nil {
		env.Logf("bft: bad new-view: %v", err)
		return
	}
	// Validate the 2f+1 supporting view-change messages.
	distinct := make(map[types.NodeID]bool)
	for _, raw := range nv.ViewChanges {
		m, err := message.Decode(raw)
		if err != nil {
			return
		}
		vc, ok := m.(*message.BFTViewChange)
		if !ok || vc.NewView != nv.View {
			return
		}
		if err := vc.VerifySig(env); err != nil {
			return
		}
		distinct[vc.From] = true
	}
	if len(distinct) < 2*p.topo.F+1 {
		env.Logf("bft: new-view with %d votes", len(distinct))
		return
	}
	// Enter the new view.
	p.view = nv.View
	p.inViewChange = false
	p.nextExpected = p.delivered + 1
	// Abandon instances from the old view above the delivered watermark;
	// their batches return via the re-issued pre-prepares (or their
	// requests are re-ordered).
	for seq, inst := range p.insts {
		if seq > p.delivered && !inst.done {
			for _, e := range inst.pp.Entries {
				p.pool.UnmarkOrdered(e.Req)
			}
			delete(p.insts, seq)
		}
	}
	p.future = make(map[types.Seq]*message.PrePrepare)
	// Process the re-issued pre-prepares.
	for _, pp := range nv.PrePrepares {
		p.onPrePrepare(env, pp)
	}
	if p.isPrimary() {
		p.nextSeq = p.nextExpected
		for _, pp := range nv.PrePrepares {
			if pp.LastSeq() >= p.nextSeq {
				p.nextSeq = pp.LastSeq() + 1
			}
		}
		p.armBatchTimer(env)
	} else if p.pool.PendingCount() > 0 {
		p.armViewChangeTimer(env)
	}
}
