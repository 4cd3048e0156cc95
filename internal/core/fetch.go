package core

import (
	"time"

	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// This file implements the fetch-on-miss fallback that digest-only
// ordering relies on. A pipelined process's critical path carries only
// digests: acks no longer embed the endorsed subject, and batches can
// commit before every referenced request payload has arrived. A process
// that finds itself missing a subject (quorum ack evidence for a sequence
// it does not track) or a payload (delivering a batch whose requests are
// not all pooled) asks a peer that demonstrably has it. Answers are the
// stored messages re-sent verbatim — self-verifying, flowing through the
// normal onOrderBatch/onRequest handlers — so a FetchReq needs no trust,
// only throttling on both sides.

// maxFetchAnswerBytes bounds one fetch answer's re-sent payload bytes; a
// requester missing more re-asks once its throttle window passes.
const maxFetchAnswerBytes = 1 << 20

// fetchThrottle is the minimum spacing between identical fetches (same
// missing subject, same missing payload, or answers to the same peer).
func (p *Process) fetchThrottle() time.Duration { return p.cfg.BatchInterval }

// requestSubjectFetch asks target for the endorsed batch at seq. Called
// when quorum ack evidence accumulates for an untracked sequence — the
// acker provably holds the subject, so it is the natural target.
func (p *Process) requestSubjectFetch(env runtime.Env, seq types.Seq, target types.NodeID) {
	if p.muted() || seq <= p.deliveredUpTo || target == p.id || !p.topo.IsProcess(target) {
		return
	}
	if at, ok := p.subjFetchAsked[seq]; ok && env.Now().Sub(at) < p.fetchThrottle() {
		return
	}
	if p.subjFetchAsked == nil {
		p.subjFetchAsked = make(map[types.Seq]time.Time)
	}
	// Drop throttle marks for history the watermark has passed; the map
	// stays bounded by the set of recently missing sequences.
	for s := range p.subjFetchAsked {
		if s <= p.deliveredUpTo {
			delete(p.subjFetchAsked, s)
		}
	}
	p.subjFetchAsked[seq] = env.Now()
	p.sendFetch(env, target, []types.Seq{seq}, nil)
}

// requestPayloadFetch asks the batch's primary for referenced request
// payloads the pool is still missing. Called at delivery: the batch
// committed, so the replica layer will block on these payloads (its Retry
// drain picks them up the moment they arrive).
func (p *Process) requestPayloadFetch(env runtime.Env, b *message.OrderBatch) {
	if p.muted() || b.Primary == p.id {
		return
	}
	var missing []message.ReqID
	for _, e := range b.Entries {
		if _, ok := p.pool.Get(e.Req); ok {
			continue
		}
		if at, ok := p.reqFetchAsked[e.Req]; ok && env.Now().Sub(at) < p.fetchThrottle() {
			continue
		}
		missing = append(missing, e.Req)
	}
	if len(missing) == 0 {
		return
	}
	if p.reqFetchAsked == nil {
		p.reqFetchAsked = make(map[message.ReqID]time.Time)
	}
	for id, at := range p.reqFetchAsked {
		if env.Now().Sub(at) >= p.fetchThrottle() {
			delete(p.reqFetchAsked, id)
		}
	}
	for _, id := range missing {
		p.reqFetchAsked[id] = env.Now()
	}
	p.sendFetch(env, b.Primary, nil, missing)
}

// armDeferredFetch keeps a retry timer running while the shadow holds
// proposals deferred on missing request bodies. The first fetch can be
// dropped by the responder-side throttle, and nothing else is guaranteed
// to re-trigger one (the client will not re-send a request we shed at
// admission), so the timer re-asks every throttle window until no
// proposal is deferred.
func (p *Process) armDeferredFetch(env runtime.Env) {
	if p.deferFetchTimer != nil || len(p.deferredProposals) == 0 {
		return
	}
	p.deferFetchTimer = env.SetTimer(p.fetchThrottle(), func() {
		p.deferFetchTimer = nil
		p.fetchDeferredPayloads(env)
		p.armDeferredFetch(env)
	})
}

// fetchDeferredPayloads re-asks the primary for every request body a
// deferred proposal is still waiting on, merged into one FetchReq per
// primary so the responder's one-answer-per-window throttle covers them
// all at once.
func (p *Process) fetchDeferredPayloads(env runtime.Env) {
	if p.muted() {
		return
	}
	missing := make(map[types.NodeID][]message.ReqID)
	for _, d := range p.deferredProposals {
		if d.batch.Primary == p.id {
			continue
		}
		for _, e := range d.batch.Entries {
			if _, ok := p.pool.Get(e.Req); ok {
				continue
			}
			if at, ok := p.reqFetchAsked[e.Req]; ok && env.Now().Sub(at) < p.fetchThrottle() {
				continue
			}
			missing[d.batch.Primary] = append(missing[d.batch.Primary], e.Req)
		}
	}
	if len(missing) == 0 {
		return
	}
	if p.reqFetchAsked == nil {
		p.reqFetchAsked = make(map[message.ReqID]time.Time)
	}
	for target, ids := range missing {
		for _, id := range ids {
			p.reqFetchAsked[id] = env.Now()
		}
		p.sendFetch(env, target, nil, ids)
	}
}

func (p *Process) sendFetch(env runtime.Env, target types.NodeID, seqs []types.Seq, reqs []message.ReqID) {
	m := &message.FetchReq{From: p.id, Seqs: seqs, Reqs: reqs}
	if err := message.Sign(env, m, &m.Sig); err != nil {
		env.Logf("core: signing FetchReq: %v", err)
		return
	}
	if len(seqs) > 0 {
		p.m.fetchSubject.Inc()
	} else {
		p.m.fetchPayload.Inc()
	}
	p.send(env, target, m)
}

// onFetchReq answers a peer's fetch with whatever of the asked-for
// subjects and payloads this process holds, re-sent verbatim.
func (p *Process) onFetchReq(env runtime.Env, from types.NodeID, m *message.FetchReq) {
	if m.From != from || from == p.id || !p.topo.IsProcess(from) || p.muted() {
		return
	}
	if err := m.VerifySig(env); err != nil {
		env.Logf("core: bad FetchReq from %v: %v", from, err)
		return
	}
	// One answer per throttle window per requester: answers re-send signed
	// history, so an unthrottled requester could use us as an amplifier.
	if at, ok := p.fetchServed[from]; ok && env.Now().Sub(at) < p.fetchThrottle() {
		return
	}
	if p.fetchServed == nil {
		p.fetchServed = make(map[types.NodeID]time.Time)
	}
	p.fetchServed[from] = env.Now()
	size := 0
	for _, seq := range m.Seqs {
		t, ok := p.trackers[seq]
		if !ok || t.Batch == nil {
			continue
		}
		if len(t.Batch.Sig2) == 0 && t.Batch.Shadow != types.Nil {
			continue // proposal, not an endorsed subject; never re-send
		}
		if size += len(t.Batch.Marshal()); size > maxFetchAnswerBytes {
			return
		}
		p.send(env, from, t.Batch)
	}
	for _, id := range m.Reqs {
		req, ok := p.pool.Get(id)
		if !ok {
			continue
		}
		if size += len(req.Marshal()); size > maxFetchAnswerBytes {
			return
		}
		p.send(env, from, req)
	}
}
