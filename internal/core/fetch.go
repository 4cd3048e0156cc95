package core

import (
	"bytes"
	"slices"
	"time"

	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// This file implements the fetch-on-miss fallback that digest-only
// ordering relies on. A pipelined process's critical path carries only
// digests: acks no longer embed the endorsed subject, and batches can
// commit before every referenced request payload has arrived. What a
// process misses — a subject its quorum of support shows exists (parked
// acks plus the coordinator pair the order credits), or a payload (a
// proposal the shadow defers, or a delivered batch whose requests are not
// all pooled) — is almost always still in flight, so nothing is fetched at
// once: one timer per process asks, after one fetch throttle window, for
// what is still missing, and again every window until it arrives. A
// subject is asked of a process that acked it, a payload of the batch's
// primary or, once that primary's pair has fail-signalled, of another live
// process. Answers are the stored messages re-sent verbatim —
// self-verifying, flowing through the normal onOrderBatch/onRequest
// handlers — so a FetchReq needs no trust, only throttling on both sides.

// maxFetchAnswerBytes bounds one fetch answer's re-sent payload bytes; a
// requester missing more re-asks once its throttle window passes.
const maxFetchAnswerBytes = 1 << 20

// fetchThrottle is the fetch timer's period and the minimum age of a miss
// before it is asked for, and the spacing between answers to one peer.
func (p *Process) fetchThrottle() time.Duration { return p.cfg.BatchInterval }

// maxMissingSubjects bounds the untracked subjects the fetch timer asks
// for; past it an ack naming one more is parked but not pursued.
const maxMissingSubjects = 64

// missingSubject is an untracked batch that a quorum supports: its
// sequence, when the support was complete, and how often it was asked for.
type missingSubject struct {
	seq   types.Seq
	at    time.Time
	asked int
}

// noteMissingSubject runs for an ack parked on a batch this process does
// not track. Once the batch's support reaches quorum, the batch exists and
// this process missed its order (lost, or still in flight): the fetch timer
// asks an acker for it one throttle window on, so an ack that merely
// outran its order fetches nothing.
func (p *Process) noteMissingSubject(env runtime.Env, a *message.Ack) {
	if p.muted() || !p.installed || a.View != p.view || !p.lacksSubject(a.FirstSeq) ||
		len(p.missingSubjects) == maxMissingSubjects || p.subjectSupport(a) < p.quorumEff() {
		return
	}
	for _, m := range p.missingSubjects {
		if m.seq == a.FirstSeq {
			return
		}
	}
	p.missingSubjects = append(p.missingSubjects, missingSubject{seq: a.FirstSeq, at: env.Now()})
	p.armFetch(env)
}

// lacksSubject reports whether the batch at seq is above the delivery
// watermark and neither tracked nor buffered ahead of its turn.
func (p *Process) lacksSubject(seq types.Seq) bool {
	_, tracked := p.trackers[seq]
	_, buffered := p.future[seq]
	return seq > p.deliveredUpTo && !tracked && !buffered
}

// subjectSupport counts the support for the subject a acks: the acting
// coordinator pair, which every order credits and which sends no ack of its
// own when pipelined (sendAck), plus each other process whose parked ack
// names the same subject.
func (p *Process) subjectSupport(a *message.Ack) int {
	primary, shadow, paired := p.candidate(p.rank)
	n := 1
	if paired {
		n = 2
	}
	q := p.pendingAcks[a.FirstSeq]
	for i, b := range q {
		if b.From == primary || (paired && b.From == shadow) || !p.mayCount(b.From) ||
			b.Kind != a.Kind || b.View != a.View || !bytes.Equal(b.SubjectDigest, a.SubjectDigest) {
			continue
		}
		first := true
		for _, c := range q[:i] {
			first = first && c.From != b.From
		}
		if first {
			n++
		}
	}
	return n
}

// maxStragglers bounds the delivered batches whose missing payloads the
// fetch timer keeps re-asking for; past it the oldest is given up (its
// bodies can still arrive by the client's own copy, mirror or catch-up).
const maxStragglers = 128

// straggler is a delivered batch some of whose request bodies were not
// pooled at delivery, when it was delivered, and how often its bodies
// were asked for.
type straggler struct {
	batch *message.OrderBatch
	at    time.Time
	asked int
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

// bodyHolder returns whom to ask for a straggler's missing bodies: the
// batch's primary, which proposed them, while its pair stands; once that
// pair has fail-signalled — it is deposed, muted or crashed — another live
// process, searched from one further along the process list on each
// re-ask, since every one of them delivered the batch.
func (p *Process) bodyHolder(s *straggler) types.NodeID {
	if p.live(s.batch.Primary) {
		return s.batch.Primary
	}
	for i := range p.all {
		if id := p.all[(s.asked+i)%len(p.all)]; id != p.id && p.live(id) {
			return id
		}
	}
	return types.Nil
}

// live reports whether id may still answer a fetch: it is not muted, and
// its pair, if it has one, has not fail-signalled.
func (p *Process) live(id types.NodeID) bool {
	r := types.Rank(p.topo.PairIndex(id))
	return !p.dumb[id] && (r == 0 || p.failSignalled[r] == nil)
}

// armFetch keeps the fetch timer running while a subject or a request body
// is missing. Nothing else re-triggers a fetch — the client will not
// re-send a request we shed at admission, and the responder's throttle may
// drop an answer — so the timer re-asks every throttle window until
// nothing is missing.
func (p *Process) armFetch(env runtime.Env) {
	if p.fetchTimer != nil || len(p.deferred)+len(p.stragglers)+len(p.missingSubjects) == 0 {
		return
	}
	if p.onFetchTick == nil {
		p.onFetchTick = func() {
			p.fetchTimer = nil
			p.fetchMissing(env)
			p.armFetch(env)
		}
	}
	p.fetchTimer = env.SetTimer(p.fetchThrottle(), p.onFetchTick)
}

// fetchMissing asks for what is still missing at least one throttle window
// after it was noted — younger misses are likely in flight and wait for
// the next tick: the untracked subjects, each of one of its ackers in
// turn, and the request bodies of deferred proposals (of their primary)
// and of stragglers (of bodyHolder). The asks are merged into one FetchReq
// per target, so the responder's one-answer-per-window throttle covers
// them all at once. Misses that have since been filled are dropped.
func (p *Process) fetchMissing(env runtime.Env) {
	now := env.Now()
	var asks []fetchAsk // one per target, in first-seen order
	to := func(target types.NodeID) *fetchAsk {
		i := slices.IndexFunc(asks, func(a fetchAsk) bool { return a.target == target })
		if i < 0 {
			i = len(asks)
			asks = append(asks, fetchAsk{target: target})
		}
		return &asks[i]
	}
	bodies := func(b *message.OrderBatch, at time.Time, target types.NodeID) bool {
		if now.Sub(at) < p.fetchThrottle() || target == types.Nil {
			return false
		}
		for _, e := range b.Entries {
			if _, ok := p.pool.Get(e.Req); !ok {
				a := to(target)
				a.ids = append(a.ids, e.Req)
			}
		}
		return true
	}
	p.missingSubjects = slices.DeleteFunc(p.missingSubjects, func(m missingSubject) bool {
		return !p.lacksSubject(m.seq) || len(p.pendingAcks[m.seq]) == 0
	})
	for i := range p.missingSubjects {
		m := &p.missingSubjects[i]
		if now.Sub(m.at) < p.fetchThrottle() {
			continue
		}
		q := p.pendingAcks[m.seq]
		a := to(q[m.asked%len(q)].From)
		a.seqs = append(a.seqs, m.seq)
		m.asked++
	}
	for _, d := range p.deferred {
		bodies(d.batch, d.at, d.batch.Primary)
	}
	p.stragglers = slices.DeleteFunc(p.stragglers, func(s straggler) bool { return p.missing(s.batch) == 0 })
	for i := range p.stragglers {
		s := &p.stragglers[i]
		if bodies(s.batch, s.at, p.bodyHolder(s)) {
			s.asked++
		}
	}
	for _, a := range asks {
		p.sendFetch(env, a.target, a.seqs, a.ids)
	}
}

// fetchAsk is one FetchReq's worth of missing subjects and bodies for one
// target.
type fetchAsk struct {
	target types.NodeID
	seqs   []types.Seq
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
	}
	if len(reqs) > 0 {
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
