package core

import (
	"bytes"
	"fmt"
	"time"

	"github.com/sof-repro/sof/internal/fsp"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// This file implements the active coordinator-pair collaboration of
// Section 3.1 / Figure 2: the shadow's value- and time-domain checking of
// the primary's order decisions, its endorsement by double-signing, and
// the primary's checking and forwarding of the endorsed output.

// onProposal handles the primary's 1-signed order decision at the shadow.
func (p *Process) onProposal(env runtime.Env, b *message.OrderBatch) {
	if p.pair == nil || !p.pair.Active() {
		return
	}
	if !p.installed {
		// Regime changing. Our counterpart may have completed IN5 ahead of
		// us (each member installs on whichever f-1 tuples reach it first):
		// keep up to a window of the proposals of the regime we are
		// installing into for replay at our IN5. Drop the rest.
		if p.installing && types.Rank(p.pairIdx) == p.rank && b.Coord == p.rank && b.View == p.view &&
			len(p.earlyProposals) < p.cfg.MaxInflightBatches {
			p.earlyProposals[b.FirstSeq] = b
		}
		return
	}
	if !p.isShadowNow() || types.Rank(p.pairIdx) != p.rank {
		// Our pair is not the acting coordinator: a counterpart that
		// issues order proposals anyway has failed in the value domain
		// (mutual checking, Section 3.1) — unless the proposal is a
		// leftover from a regime we have already moved past.
		if b.View >= p.view {
			p.pair.Fail(env, fmt.Sprintf("value-domain: counterpart proposed order %d while pair %d is not coordinating",
				b.FirstSeq, p.pairIdx))
			p.pair.MarkPermanentlyDown()
		}
		return
	}
	fail := func(reason string, permanent bool) {
		if permanent {
			p.pair.Fail(env, reason)
			p.pair.MarkPermanentlyDown()
		} else {
			p.pair.Fail(env, reason)
		}
	}
	// The proposal must be for the coordinator regime we are shadowing.
	if b.Coord != p.rank || b.View != p.view {
		fail(fmt.Sprintf("value-domain: proposal for wrong regime c=%d v=%d", b.Coord, b.View), true)
		return
	}
	if b.FirstSeq != p.shadowNextPropose {
		fail(fmt.Sprintf("value-domain: out-of-sequence proposal %d, expected %d",
			b.FirstSeq, p.shadowNextPropose), true)
		return
	}
	if len(b.Entries) == 0 {
		fail("value-domain: empty proposal", true)
		return
	}
	if err := message.VerifySingle(env, b.Primary, b.SignedBody(), b.Sig1); err != nil {
		fail(fmt.Sprintf("value-domain: proposal signature: %v", err), true)
		return
	}
	// The primary did decide an order for these requests: discharge the
	// per-request time-domain expectations now; value checks may need to
	// wait for the requests themselves to arrive.
	for _, e := range b.Entries {
		p.pairMet(env, fsp.OrderKey(e.Req))
	}
	// Reserve the sequence range so a duplicate/overlapping proposal is
	// detected even while validation is deferred.
	p.shadowNextPropose = b.LastSeq() + 1

	unresolved := 0
	for _, e := range b.Entries {
		e := e
		if _, known := p.pool.Get(e.Req); !known {
			unresolved++
			continue
		}
	}
	if unresolved == 0 {
		p.validateAndEndorse(env, b)
		return
	}
	// Defer endorsement until every referenced request has arrived.
	// Clients multicast to all nodes, so a correct client's request is on
	// its way — unless our own admission shed it before the primary's
	// proposal named it, in which case no further copy is coming and the
	// fetch below (with its retry timer) recovers the body from the
	// primary. A fabricated ReqID from a faulty primary keeps the
	// proposal pending and the next real request's expectation will
	// eventually flag the primary as untimely.
	p.deferredProposals[b.FirstSeq] = &deferredProposal{batch: b, left: unresolved, at: env.Now()}
	p.m.shadowDeferred.Inc()
	for _, e := range b.Entries {
		e := e
		if _, known := p.pool.Get(e.Req); known {
			continue
		}
		first := b.FirstSeq
		batch := b
		p.pool.WhenAvailable(e.Req, func(*message.Request) {
			d, pending := p.deferredProposals[first]
			if !pending {
				return
			}
			if d.left--; d.left > 0 {
				return
			}
			delete(p.deferredProposals, first)
			p.m.shadowDeferral.ObserveDuration(env.Now().Sub(d.at))
			p.validateAndEndorse(env, batch)
		})
	}
	p.requestPayloadFetch(env, b)
	p.armDeferredFetch(env)
}

// deferredProposal is a shadow-side proposal awaiting referenced request
// bodies: left counts the outstanding WhenAvailable waiters, batch keeps
// the entries so the fetch retry knows what is still missing, and at is
// when it was deferred.
type deferredProposal struct {
	batch *message.OrderBatch
	left  int
	at    time.Time
}

// validateAndEndorse performs the shadow's value-domain check against its
// own copy of each request, then endorses by double-signing and multicasts
// the endorsed decision to all processes (including the primary).
func (p *Process) validateAndEndorse(env runtime.Env, b *message.OrderBatch) {
	if p.pair == nil || !p.pair.Active() || !p.isShadowNow() || b.View != p.view {
		return
	}
	for _, e := range b.Entries {
		req, ok := p.pool.Get(e.Req)
		if !ok {
			return // lost a race with a regime change; drop
		}
		if !bytes.Equal(e.ReqDigest, env.ScratchDigest(req.SignedBody())) {
			p.pair.Fail(env, fmt.Sprintf("value-domain: wrong digest for %v in proposal %d", e.Req, b.FirstSeq))
			p.pair.MarkPermanentlyDown()
			return
		}
	}
	endorsed, err := b.Endorse(env)
	if err != nil {
		env.Logf("core: endorsing batch %d: %v", b.FirstSeq, err)
		return
	}
	for _, e := range b.Entries {
		p.pool.MarkOrdered(e.Req)
	}
	p.multicastAll(env, endorsed)
}

// primaryObserveEndorsed lets the acting primary check the endorsed batch
// the shadow multicast: a correct echo discharges the endorsement
// expectation and is forwarded to all other processes (Figure 2); a
// tampered echo is a value-domain failure of the shadow.
func (p *Process) primaryObserveEndorsed(env runtime.Env, b *message.OrderBatch, digest []byte) {
	if !p.isPrimaryNow() || p.pair == nil {
		return
	}
	proposal, mine := p.proposals[b.FirstSeq]
	if !mine {
		return
	}
	p.pairMet(env, fsp.EndorseKey(b.FirstSeq))
	// Value-domain check: the endorsed body must be byte-identical to the
	// proposal (the shadow may only add Sig2).
	if !bytes.Equal(proposal.SignedBody(), b.SignedBody()) || !bytes.Equal(proposal.Sig1, b.Sig1) {
		p.pair.Fail(env, fmt.Sprintf("value-domain: shadow altered batch %d", b.FirstSeq))
		p.pair.MarkPermanentlyDown()
		return
	}
	delete(p.proposals, b.FirstSeq)
	// "When pi receives an authentic, doubly-signed message from p'i, it
	// forwards the received to all other processes (including p'i)."
	p.multicastAll(env, b)
}

// onPairDown reacts to this member's half of the pair stopping (either it
// emitted a fail-signal or it received its counterpart's): coordinator
// duties cease immediately.
func (p *Process) onPairDown(env runtime.Env, fs *message.FailSignal, reason string) {
	if p.batchTimer != nil {
		p.batchTimer.Stop()
		p.batchTimer = nil
	}
	for k := range p.deferredProposals {
		delete(p.deferredProposals, k)
	}
	if p.deferFetchTimer != nil {
		p.deferFetchTimer.Stop()
		p.deferFetchTimer = nil
	}
	// A deposed primary abandons its proposal window outright: the
	// uncommitted tail is the new coordinator's to re-order (the
	// fail-over BackLog/Start machinery re-orders the dropped requests).
	for k := range p.inflight {
		delete(p.inflight, k)
	}
	p.m.failSignals.Inc()
	if p.cfg.OnFailSignal != nil && fs != nil {
		p.cfg.OnFailSignal(FailSignalEvent{
			Node: p.id, Pair: fs.Pair, Emitter: fs.Second == p.id, Reason: reason, At: env.Now(),
		})
	}
	// SCR: a down pair starts probing for optimistic recovery (a
	// permanently_down pair refuses in scrStartRecovery's status check).
	p.scrStartRecovery(env)
}
