package core

import (
	"slices"
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
// it does not track) asks a peer that demonstrably has it. A missing
// payload (a proposal the shadow defers, or a delivered batch whose
// requests are not all pooled) is almost always a client's multicast
// still in flight, so nothing is fetched at once: one timer per process
// asks the primary, after one fetch throttle window, for the bodies still
// missing, and again every window until they arrive. Answers are the
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

// maxStragglers bounds the delivered batches whose missing payloads the
// fetch timer keeps re-asking for; past it the oldest is given up (its
// bodies can still arrive by the client's own copy, mirror or catch-up).
const maxStragglers = 128

// straggler is a delivered batch some of whose request bodies were not
// pooled at delivery, and when it was delivered.
type straggler struct {
	batch *message.OrderBatch
	at    time.Time
}

// noteStraggler records a delivered batch whose payloads are not all
// pooled, for the fetch timer: the replica layer blocks on these bodies
// (its Retry drain picks them up the moment they arrive).
func (p *Process) noteStraggler(env runtime.Env, b *message.OrderBatch) {
	if p.muted() || b.Primary == p.id || p.missing(b) == 0 {
		return
	}
	if len(p.stragglers) == maxStragglers {
		p.stragglers = slices.Delete(p.stragglers, 0, 1)
	}
	p.stragglers = append(p.stragglers, straggler{batch: b, at: env.Now()})
	p.armFetch(env)
}

// missing counts the batch's entries whose bodies the pool does not hold.
func (p *Process) missing(b *message.OrderBatch) int {
	n := 0
	for _, e := range b.Entries {
		if _, ok := p.pool.Get(e.Req); !ok {
			n++
		}
	}
	return n
}

// armFetch keeps the fetch timer running while a deferred proposal or a
// straggler waits on request bodies. Nothing else re-triggers a payload
// fetch — the client will not re-send a request we shed at admission, and
// the responder's throttle may drop an answer — so the timer re-asks every
// throttle window until nothing is missing.
func (p *Process) armFetch(env runtime.Env) {
	if p.fetchTimer != nil || len(p.deferred)+len(p.stragglers) == 0 {
		return
	}
	if p.onFetchTick == nil {
		p.onFetchTick = func() {
			p.fetchTimer = nil
			p.fetchMissingPayloads(env)
			p.armFetch(env)
		}
	}
	p.fetchTimer = env.SetTimer(p.fetchThrottle(), p.onFetchTick)
}

// fetchMissingPayloads asks each batch's primary for the request bodies
// that deferred proposals and stragglers at least one throttle window old
// still miss — younger ones are likely in flight and wait for the next
// tick — merged into one FetchReq per primary so the responder's
// one-answer-per-window throttle covers them all at once. Stragglers
// whose bodies have all arrived are dropped.
func (p *Process) fetchMissingPayloads(env runtime.Env) {
	now := env.Now()
	var asks []payloadAsk // one per primary, in first-seen order
	ask := func(b *message.OrderBatch, at time.Time) {
		if now.Sub(at) < p.fetchThrottle() {
			return
		}
		for _, e := range b.Entries {
			if _, ok := p.pool.Get(e.Req); ok {
				continue
			}
			i := slices.IndexFunc(asks, func(a payloadAsk) bool { return a.target == b.Primary })
			if i < 0 {
				i = len(asks)
				asks = append(asks, payloadAsk{target: b.Primary})
			}
			asks[i].ids = append(asks[i].ids, e.Req)
		}
	}
	for _, d := range p.deferred {
		ask(d.batch, d.at)
	}
	p.stragglers = slices.DeleteFunc(p.stragglers, func(s straggler) bool { return p.missing(s.batch) == 0 })
	for _, s := range p.stragglers {
		ask(s.batch, s.at)
	}
	for _, a := range asks {
		p.sendFetch(env, a.target, nil, a.ids)
	}
}

// payloadAsk is one FetchReq's worth of missing bodies for one primary.
type payloadAsk struct {
	target types.NodeID
	ids    []message.ReqID
}

func (p *Process) sendFetch(env runtime.Env, target types.NodeID, seqs []types.Seq, reqs []message.ReqID) {
	if p.muted() {
		return
	}
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
