package core

import (
	"time"

	"github.com/sof-repro/sof/internal/fsp"
	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// This file is the ordering process's side of the admission pipeline:
// every client request entering onRequest passes the ingress controller
// before it may occupy pool memory, and rejected clients receive a
// signed, throttled Rejected message telling them why and how long to
// back off. The controller also tracks overload from the pool/pipeline
// pressure sampled here, so the brownout state follows the event loop's
// own view of its backlog.

// ingressPressure samples the process's backlog for the admission
// controller. client is the requesting client for per-client fields, or
// types.Nil for pure refresh calls (batch close, inflight release).
func (p *Process) ingressPressure(client types.NodeID) ingress.Pressure {
	pr := ingress.Pressure{
		PoolBytes:     p.pool.PendingBytes(),
		BatchBytes:    p.cfg.MaxBatchBytes,
		PoolPending:   p.pool.PendingCount(),
		ActiveClients: p.pool.ActiveClients(),
		Inflight:      len(p.inflight),
		MaxInflight:   p.cfg.MaxInflightBatches,
	}
	if client != types.Nil {
		pr.ClientPending = p.pool.ClientPending(client)
	}
	return pr
}

// admitRequest runs the admission pipeline for one client request.
// Returns true when the request may enter the pool. Duplicates of
// already-known requests bypass admission entirely: they cost nothing
// (the pool dedups them) and charging the limiter for them would
// double-count clients whose requests also arrive mirrored through the
// pair link or re-sent during fail-over.
func (p *Process) admitRequest(env runtime.Env, req *message.Request) bool {
	if p.ingress == nil {
		return true
	}
	if _, known := p.pool.Get(req.ID()); known {
		return true
	}
	// Requests the ordering stream already references are pre-authorized:
	// admission is the proposer's call, and once a proposal or endorsed
	// batch names a request, refusing its body here could only stall
	// endorsement or delivery — the memory it occupies was already bought
	// by the proposer's own admission decision.
	if p.pool.IsOrdered(req.ID()) || p.pool.Awaited(req.ID()) {
		return true
	}
	d := p.ingress.Admit(req.Client, env.Now(), p.ingressPressure(req.Client))
	p.syncIngressMetrics(d)
	if d.Admit {
		p.noteAdmitted(env, req.ID())
		return true
	}
	p.sendReject(env, req, d)
	p.notifyPairShed(env, req, d)
	return false
}

// refreshIngress re-evaluates the brownout state against the current
// backlog without charging any client. Called wherever the backlog
// drains (batch close, inflight release) so the brownout clears as soon
// as pressure does, not only on the next arrival.
func (p *Process) refreshIngress() {
	if p.ingress == nil {
		return
	}
	p.ingress.Observe(p.ingressPressure(types.Nil))
	if p.ingress.Brownout() {
		p.m.ingressBrownout.Set(1)
	} else {
		p.m.ingressBrownout.Set(0)
	}
}

// syncIngressMetrics mirrors one admission decision into the registry
// instruments.
func (p *Process) syncIngressMetrics(d ingress.Decision) {
	switch d.Code {
	case ingress.OK:
		p.m.ingressAdmitted.Inc()
	case ingress.RateLimited:
		p.m.ingressShedRate.Inc()
	case ingress.LockedOut:
		p.m.ingressLockedOut.Inc()
	case ingress.Overload:
		p.m.ingressShedOverload.Inc()
	case ingress.InflightCap:
		p.m.ingressShedInflight.Inc()
	}
	if p.ingress.Brownout() {
		p.m.ingressBrownout.Set(1)
	} else {
		p.m.ingressBrownout.Set(0)
	}
}

// sendReject answers a refused request with a signed Rejected message,
// at most one per client per batch interval — a flooding client must
// not convert its request stream into an equally large reject stream.
func (p *Process) sendReject(env runtime.Env, req *message.Request, d ingress.Decision) {
	if p.muted() {
		return
	}
	now := env.Now()
	if last, ok := p.rejectLast[req.Client]; ok && now.Sub(last) < p.cfg.BatchInterval {
		return
	}
	p.rejectLast[req.Client] = now
	rej := &message.Rejected{
		From:       p.id,
		Client:     req.Client,
		ClientSeq:  req.ClientSeq,
		Code:       uint8(d.Code),
		RetryAfter: d.RetryAfter,
	}
	if err := message.Sign(env, rej, &rej.Sig); err != nil {
		env.Logf("core: signing reject: %v", err)
		return
	}
	p.send(env, req.Client, rej)
}

// notifyPairShed copies the acting primary's shed decision to its shadow
// on the pair link. Admission runs independently on every node, so the
// shadow may well have pooled a request the primary refused — and it
// holds a time-domain expectation that the primary orders every pooled
// request. Unlike the client-facing reject this note is not throttled:
// parity needs the shadow to hear about every request the primary will
// never order, or the expectation fires a false fail-signal after Delta.
func (p *Process) notifyPairShed(env runtime.Env, req *message.Request, d ingress.Decision) {
	if p.pair == nil || !p.pair.Active() || !p.isPrimaryNow() {
		return
	}
	rej := &message.Rejected{
		From:       p.id,
		Client:     req.Client,
		ClientSeq:  req.ClientSeq,
		Code:       uint8(d.Code),
		RetryAfter: d.RetryAfter,
	}
	if err := message.Sign(env, rej, &rej.Sig); err != nil {
		env.Logf("core: signing pair shed note: %v", err)
		return
	}
	p.send(env, p.pair.Counterpart(), rej)
}

// onPeerRejected consumes the primary's shed note: the counterpart
// refused this request at admission, so it will never be ordered in this
// regime. Discharge the order expectation and drop our own pooled copy,
// keeping the shadow's backlog accounting in step with the proposer's.
func (p *Process) onPeerRejected(env runtime.Env, from types.NodeID, m *message.Rejected) {
	if p.pair == nil || from != p.pair.Counterpart() || m.From != from {
		return
	}
	if err := m.VerifySig(env); err != nil {
		env.Logf("core: bad shed note from %v: %v", from, err)
		return
	}
	id := message.ReqID{Client: m.Client, ClientSeq: m.ClientSeq}
	if p.pool.IsOrdered(id) || p.pool.Awaited(id) {
		return // an order references it after all; the note is stale
	}
	if p.pair.Active() {
		p.pair.Met(fsp.OrderKey(id))
	}
	p.pool.Drop(id)
	p.refreshIngress()
}

// --- pool eviction ---

// admitStamp remembers when a request entered the pool, in admission
// order; the eviction sweep consumes the log from the front.
type admitStamp struct {
	id message.ReqID
	at time.Time
}

// noteAdmitted stamps a freshly admitted request for TTL eviction. Only
// non-proposers leak: the proposer orders everything it admits, but a
// replica that pooled a request the proposer shed holds it forever, and
// a pool that never forgets keeps the node in brownout long after the
// flood is gone.
func (p *Process) noteAdmitted(env runtime.Env, id message.ReqID) {
	if p.ingress.EvictAfter() <= 0 {
		return
	}
	p.ingressAges = append(p.ingressAges, admitStamp{id: id, at: env.Now()})
	p.armEvictTimer(env)
}

// evictRetry is the least delay between eviction sweeps. It only binds
// when the head stamp has already expired — a tick that could not drop it
// (acting primary, deferred proposals) polls for that to clear at this
// pace instead of spinning.
const evictRetry = 100 * time.Millisecond

func (p *Process) armEvictTimer(env runtime.Env) {
	if p.evictTimer != nil || p.agesHead >= len(p.ingressAges) {
		return
	}
	d := p.ingress.EvictAfter() - env.Now().Sub(p.ingressAges[p.agesHead].at)
	if d < evictRetry {
		d = evictRetry
	}
	p.evictTimer = env.SetTimer(d, func() { p.evictTick(env) })
}

// evictTick consumes the stamps whose eviction TTL expired, dropping the
// pool entries among them that never got an ordering decision. The acting
// primary drops nothing — its backlog is not a leak, every entry it
// admitted is on its way into a batch — and neither does a shadow with
// deferred proposals (their entries are resolved but not yet marked
// ordered; evicting one would silently drop the endorsement). Both still
// consume the stamps of requests already ordered, so the log stays bounded
// by EvictAfter of admissions on every role, and stop at the first expired
// stamp they may not drop; the re-arm then waits on that live head.
func (p *Process) evictTick(env runtime.Env) {
	p.evictTimer = nil
	mayDrop := !p.isPrimaryNow() && len(p.deferred) == 0
	now := env.Now()
	dropped := false
	for p.agesHead < len(p.ingressAges) && now.Sub(p.ingressAges[p.agesHead].at) >= p.ingress.EvictAfter() {
		s := p.ingressAges[p.agesHead]
		if !p.pool.IsOrdered(s.id) && !p.pool.Awaited(s.id) {
			if !mayDrop {
				break
			}
			p.pool.Drop(s.id)
			p.m.ingressEvicted.Inc()
			dropped = true
		}
		p.agesHead++
	}
	// Release the consumed prefix once it dominates the log (the pool's
	// own compaction idiom).
	if p.agesHead >= poolCompactMin && p.agesHead*2 >= len(p.ingressAges) {
		n := copy(p.ingressAges, p.ingressAges[p.agesHead:])
		p.ingressAges = p.ingressAges[:n]
		p.agesHead = 0
	}
	if dropped {
		p.refreshIngress()
	}
	p.armEvictTimer(env)
}

// observeClientQueueDepth records the admitted client's queue depth; the
// histogram shows how deep per-client backlogs run under fair dequeue.
func (p *Process) observeClientQueueDepth(client types.NodeID) {
	if p.ingress == nil || p.m.ingressQueueDepth == nil {
		return
	}
	p.m.ingressQueueDepth.Observe(float64(p.pool.ClientPending(client)))
}
