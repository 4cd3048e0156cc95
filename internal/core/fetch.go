package core

import (
	"slices"
	"time"

	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// This file implements the fetch timer, one per process: the one way a
// live process repairs what it missed. What it misses is almost always
// still in flight, so nothing is asked for at once; what is still missing
// a fetch window later is asked for, and again every window until it
// arrives. Answers are stored messages re-sent verbatim — self-verifying
// — so a request needs no trust, only throttling on both sides.
//
// A request body — a proposal the shadow defers, or a delivered batch
// whose payloads have not all arrived — is asked for with a FetchReq, of
// the batch's primary or, once its pair has fail-signalled, of another
// live process. Missing orders and commits follow one gap rule: a process
// whose delivery watermark has not moved for a window while it holds
// evidence above it pulls, with the CatchUpReq a restarted process sends
// (catchup.go), from one peer per window — the coordinator's primary, then
// the other live processes in turn, backing off once it has asked them all
// to one per 8 windows while its pulls bring nothing. Evidence is a batch buffered ahead of
// its turn, a commit above the watermark, or the subject next in line
// credited by nothing for stuckWindows. An ack is not evidence: any peer
// can sign one for a subject nobody ordered.

// maxFetchAnswerBytes bounds the re-sent bytes of one answer: request
// bodies, or the orders sent after a CatchUp. A requester missing more
// asks again a window later.
const maxFetchAnswerBytes = 1 << 20

// fetchThrottle is the fetch window: the minimum age of a miss before it
// is asked for, and the spacing of asks, of pulls and of answers to one
// peer.
func (p *Process) fetchThrottle() time.Duration { return p.cfg.BatchInterval }

// stuckWindows is how many fetch windows the subject next in line, acked
// here, must go without any new credit before it counts as stuck. One is
// not enough: under 2006-era signatures an interval-paced primary waits
// longer than its batch interval between acks while nothing is lost.
const stuckWindows = 2

// maxStragglers bounds the delivered batches whose missing payloads the
// fetch timer keeps re-asking for; past it the oldest is given up (its
// bodies can still arrive by the client's own copy, mirror or catch-up).
const maxStragglers = 128

// straggler is a delivered batch some of whose request bodies were not
// pooled at delivery, when its bodies are next asked for, and how often
// they were.
type straggler struct {
	batch *message.OrderBatch
	due   time.Time
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
	p.stragglers = append(p.stragglers, straggler{batch: b, due: env.Now().Add(p.fetchThrottle())})
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

// liveFrom returns whom to ask for the k-th time: the first live process
// searched from the (k+1)-th after this one in the process list on, so
// successive asks go round the others.
func (p *Process) liveFrom(k int) types.NodeID {
	self := slices.Index(p.all, p.id)
	for i := 1; i <= len(p.all); i++ {
		if id := p.all[(self+k+i)%len(p.all)]; id != p.id && p.live(id) {
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

// mayFallBehind reports whether the gap rule watches this process: it is
// installed, transmits, is not in a restart catch-up (which pulls on its
// own), and holds something that could become evidence.
func (p *Process) mayFallBehind() bool {
	return p.installed && !p.muted() && !p.catchingUp.Load() &&
		(len(p.future) > 0 || p.trackers[p.deliveredUpTo+1] != nil ||
			p.lastCommitted != nil && p.lastCommitted.FirstSeq > p.deliveredUpTo)
}

// behind reports whether the process holds evidence above its watermark.
// Only doubly signed batches enter future, so one there is evidence.
func (p *Process) behind(now time.Time) bool {
	t := p.trackers[p.deliveredUpTo+1]
	return len(p.future) > 0 || p.lastCommitted != nil && p.lastCommitted.FirstSeq > p.deliveredUpTo ||
		t != nil && !t.Committed && t.Credited(p.id) && now.Sub(p.creditAt) >= stuckWindows*p.fetchThrottle()
}

// gapWindow is how long the watermark must stand still before the gap
// rule looks: a fetch window while its pulls since the watermark moved
// have not yet gone round every process, then doubled each round up to 8
// windows, so answers slow to come are not asked for over and over.
func (p *Process) gapWindow() time.Duration {
	return p.fetchThrottle() << min(p.pulls/len(p.all), 3)
}

// pullIfBehind is the gap rule, run by the fetch timer: once the
// watermark has stood still for gapWindow — since it moved, or since the
// last look — a process with evidence above it pulls. It asks for the
// commits above its watermark and, since the peer may lack them as much as
// it does, hands over the orders it tracks above it.
func (p *Process) pullIfBehind(env runtime.Env, now time.Time) {
	if now.Before(p.gapSince.Add(p.gapWindow())) || !p.mayFallBehind() {
		return
	}
	p.gapSince = now
	if !p.behind(now) {
		return
	}
	target, _, _ := p.candidate(p.rank)
	if p.pulls > 0 || target == p.id || !p.live(target) {
		target = p.liveFrom(p.pulls)
	}
	p.pulls++
	if m := p.catchUpReq(env, p.deliveredUpTo, false); m != nil && target != types.Nil {
		p.m.pulls.Inc()
		p.send(env, target, m)
		p.resendOrders(env, target, p.deliveredUpTo)
	}
}

// armFetch arms the fetch timer, unless it is armed, for the earliest of
// what it waits on: a missing body's next ask, and the gap rule's next
// look while it watches. Nothing else re-asks — the client will not
// re-send a request we shed at admission, the responder's throttle may
// drop an answer, and nobody re-sends a lost ack. A miss noted while the
// timer is armed is due no earlier than it.
func (p *Process) armFetch(env runtime.Env) {
	if p.fetchTimer != nil {
		return
	}
	var next time.Time
	due := func(at time.Time) {
		if next.IsZero() || at.Before(next) {
			next = at
		}
	}
	for _, d := range p.deferred {
		due(d.due)
	}
	for _, s := range p.stragglers {
		due(s.due)
	}
	if p.mayFallBehind() {
		due(p.gapSince.Add(p.gapWindow()))
	}
	if next.IsZero() {
		return
	}
	if p.onFetchTick == nil {
		p.onFetchTick = func() {
			p.fetchTimer = nil
			p.fetchMissing(env)
			p.armFetch(env)
		}
	}
	p.fetchTimer = env.SetTimer(max(next.Sub(env.Now()), 0), p.onFetchTick)
}

// fetchMissing asks for what is due: the request bodies of deferred
// proposals (of their primary) and of stragglers (of the batch's primary
// while its pair stands, else of a live process in turn), merged into one
// FetchReq per target so the responder's one-answer-per-window throttle
// covers them at once; then it runs the gap rule. Stragglers whose bodies
// have since arrived are dropped.
func (p *Process) fetchMissing(env runtime.Env) {
	now := env.Now()
	var asks []fetchAsk // one per target, in first-seen order
	ask := func(b *message.OrderBatch, due *time.Time, target types.NodeID) bool {
		if now.Before(*due) || target == types.Nil {
			return false
		}
		*due = now.Add(p.fetchThrottle())
		i := slices.IndexFunc(asks, func(a fetchAsk) bool { return a.target == target })
		if i < 0 {
			i = len(asks)
			asks = append(asks, fetchAsk{target: target})
		}
		for _, e := range b.Entries {
			if _, ok := p.pool.Get(e.Req); !ok {
				asks[i].ids = append(asks[i].ids, e.Req)
			}
		}
		return true
	}
	for i := range p.deferred {
		ask(p.deferred[i].batch, &p.deferred[i].due, p.deferred[i].batch.Primary)
	}
	p.stragglers = slices.DeleteFunc(p.stragglers, func(s straggler) bool { return p.missing(s.batch) == 0 })
	for i := range p.stragglers {
		s := &p.stragglers[i]
		holder := s.batch.Primary
		if !p.live(holder) {
			holder = p.liveFrom(s.asked)
		}
		if ask(s.batch, &s.due, holder) {
			s.asked++
		}
	}
	for _, a := range asks {
		p.sendFetch(env, a.target, a.ids)
	}
	p.pullIfBehind(env, now)
}

// fetchAsk is one FetchReq's worth of missing bodies for one target.
type fetchAsk struct {
	target types.NodeID
	ids    []message.ReqID
}

func (p *Process) sendFetch(env runtime.Env, target types.NodeID, reqs []message.ReqID) {
	if p.muted() || len(reqs) == 0 {
		return
	}
	m := &message.FetchReq{From: p.id, Reqs: reqs}
	if err := message.Sign(env, m, &m.Sig); err != nil {
		env.Logf("core: signing FetchReq: %v", err)
		return
	}
	p.m.fetchPayload.Inc()
	p.send(env, target, m)
}

// onFetchReq answers a peer's fetch with whatever of the asked-for
// request bodies this process holds, re-sent verbatim.
func (p *Process) onFetchReq(env runtime.Env, from types.NodeID, m *message.FetchReq) {
	if m.From != from || from == p.id || !p.topo.IsProcess(from) || p.muted() {
		return
	}
	if err := m.VerifySig(env); err != nil {
		env.Logf("core: bad FetchReq from %v: %v", from, err)
		return
	}
	// One answer per throttle window per requester: answers re-send signed
	// requests, so an unthrottled requester could use us as an amplifier.
	if at, ok := p.fetchServed[from]; ok && env.Now().Sub(at) < p.fetchThrottle() {
		return
	}
	if p.fetchServed == nil {
		p.fetchServed = make(map[types.NodeID]time.Time)
	}
	p.fetchServed[from] = env.Now()
	size := 0
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
