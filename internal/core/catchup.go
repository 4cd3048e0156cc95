package core

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// This file implements durable protocol checkpoints and catch-up, the
// protocol-layer counterpart of the transport session journal. A process
// with a Checkpointer periodically snapshots its installed regime (view,
// rank), pair epochs, committed-sequence watermark and the rolling
// committed-order digest; a restarted process restores the snapshot,
// announces its watermark with a CatchUpReq, and peers answer with
// BackLog-derived CatchUp messages carrying the committed subjects (and
// request payloads) it missed, verified with the same committed-order
// proofs verifyBackLog uses and adopted through the adoptNewBackLog path.
// A live process that fell behind pulls the same answer from one peer
// (fetch.go); only a restart round waits for f+1 answers, marks the
// process not ready, and takes its pair's proposal counter from one.
// Durable checkpoint watermarks are also gossiped (CatchUpReq with
// Announce), so every process tracks the cluster-wide checkpoint
// watermark and prunes its committed-order history — the committed
// trackers — below it instead of retaining it forever: nothing below the
// minimum durable checkpoint can ever be requested again.

// DefaultCheckpointInterval is how many delivered sequence numbers pass
// between protocol checkpoints when Config.CheckpointInterval is zero.
const DefaultCheckpointInterval = 64

// maxCatchUpSeqs and maxCatchUpBytes bound one CatchUp response — by
// sequence numbers and by encoded subject/payload bytes (the byte bound
// keeps the frame well under the transport's frame limit, which would
// otherwise silently drop an oversized answer and wedge the requester).
// A requester further behind re-requests from its new watermark after
// adopting, so catch-up over long histories proceeds in bounded messages
// instead of one unbounded one.
const (
	maxCatchUpSeqs  = 512
	maxCatchUpBytes = 1 << 20
)

// catchUpRetryIntervals is the request retry period in batch intervals: a
// restarted process re-multicasts its CatchUpReq until some peer's answer
// completes the catch-up (peers at or below our watermark answer with an
// empty CatchUp, so a current process converges on the first response).
const catchUpRetryIntervals = 10

// CheckpointState is one durable protocol checkpoint: everything an order
// process needs to rejoin after a restart without re-deriving ordering
// from sequence number one.
type CheckpointState struct {
	// View and Rank are the installed regime at checkpoint time.
	View types.View
	Rank types.Rank
	// DeliveredUpTo is the committed-sequence watermark: every sequence
	// number at or below it was contiguously delivered.
	DeliveredUpTo types.Seq
	// NextSeq is the coordinator-primary proposal counter, so a restarted
	// primary never reuses a sequence number it already proposed (as of
	// this checkpoint).
	NextSeq types.Seq
	// OrderDigest is the rolling digest chain over delivered subjects:
	// chain_i = D(chain_{i-1} || subject digest). Processes at the same
	// watermark hold identical chains, so divergence is detectable.
	OrderDigest []byte
	// PairEpochs are the per-pair fail-signal epochs (SCR recovery state).
	PairEpochs map[types.Rank]uint64
}

// Checkpointer persists protocol checkpoints (implemented by
// wal/protolog.Store). Save appends a checkpoint and returns the highest
// checkpoint watermark known DURABLE — typically the previous
// checkpoint's, since appends are group-committed — which is what the
// process may safely announce to peers (they prune history behind
// announced watermarks, so announcing an unsynced checkpoint could strand
// a crash-restored process behind everyone's prune floor). Load returns
// the checkpoint recovered at open, if any.
type Checkpointer interface {
	Save(CheckpointState) (durable types.Seq)
	Load() (CheckpointState, bool)
}

// ProposalJournaler is the optional pipelining extension of a checkpoint
// store (implemented by wal/protolog.Store): a primary journals its
// proposal counter on every batch close — far cheaper than a full
// checkpoint — so a restart recovers a floor for nextSeq even when the
// last checkpoint is many proposals old. The floor alone cannot make the
// restarted primary's first proposal acceptable to its shadow (the journal
// is asynchronous, so the crash window can both lose journalled proposals
// and — with a skip — overshoot); it bounds the damage, while the
// pair-assisted exact resume (CatchUp.PairNextPropose) removes it.
type ProposalJournaler interface {
	// JournalProposal records that sequence numbers below next are spoken
	// for. Asynchronous: durability follows at the store's sync cadence.
	JournalProposal(next types.Seq)
	// ProposalFloor returns the highest journalled counter recovered at
	// open, if any.
	ProposalFloor() (types.Seq, bool)
}

// restoreCheckpoint applies a recovered checkpoint to a freshly built
// process (called from New, before the runtime starts it).
func (p *Process) restoreCheckpoint(cp CheckpointState) {
	if cp.Rank < 1 || int(cp.Rank) > p.topo.NumCandidates() {
		return // unusable regime; rejoin from scratch via catch-up
	}
	p.view = cp.View
	p.rank = cp.Rank
	p.installed = true
	p.deliveredUpTo = cp.DeliveredUpTo
	p.nextExpected = cp.DeliveredUpTo + 1
	p.nextSeq = max(p.nextSeq, cp.NextSeq, p.deliveredUpTo+1)
	p.shadowNextPropose = p.nextSeq
	p.orderDigest = append([]byte(nil), cp.OrderDigest...)
	for r, e := range cp.PairEpochs {
		p.pairEpochs[r] = e
	}
	p.lastCkptSeq = cp.DeliveredUpTo
	// The loaded checkpoint is durable by construction, so its watermark
	// is safe to (re-)announce.
	p.announcedWM = cp.DeliveredUpTo
}

// chainDigest extends the rolling committed-order digest with one
// delivered subject's digest, in place: the chain is summed in scratch
// and copied into orderDigest's own bytes, which every reader copies
// (the checkpoint, OrderDigest).
func (p *Process) chainDigest(env runtime.Env, subject []byte) {
	p.chainBuf = append(append(p.chainBuf[:0], p.orderDigest...), subject...)
	p.orderDigest = append(p.orderDigest[:0], env.ScratchDigest(p.chainBuf)...)
}

// saveCheckpointIfDue runs on the commit path (deliver): once
// CheckpointInterval sequence numbers have been delivered since the last
// checkpoint, snapshot the protocol state and, when an earlier checkpoint
// has become durable, announce its watermark to the cluster.
func (p *Process) saveCheckpointIfDue(env runtime.Env) {
	if p.cfg.Checkpointer == nil || p.installing || !p.installed {
		return
	}
	if p.deliveredUpTo < p.lastCkptSeq+p.ckptEvery {
		return
	}
	epochs := make(map[types.Rank]uint64, len(p.pairEpochs))
	for r, e := range p.pairEpochs {
		epochs[r] = e
	}
	durable := p.cfg.Checkpointer.Save(CheckpointState{
		View:          p.view,
		Rank:          p.rank,
		DeliveredUpTo: p.deliveredUpTo,
		NextSeq:       p.nextSeq,
		OrderDigest:   append([]byte(nil), p.orderDigest...),
		PairEpochs:    epochs,
	})
	p.lastCkptSeq = p.deliveredUpTo
	if durable > p.announcedWM {
		p.announcedWM = durable
		p.announceWatermark(env, durable)
		p.maybePruneHistory()
	}
}

// announceWatermark gossips a durable checkpoint watermark (no response
// wanted); receivers fold it into their cluster-watermark minimum.
func (p *Process) announceWatermark(env runtime.Env, wm types.Seq) {
	if m := p.catchUpReq(env, wm, true); m != nil {
		p.multicastAll(env, m)
	}
}

// catchUpReq returns a signed CatchUpReq for watermark wm, or nil.
func (p *Process) catchUpReq(env runtime.Env, wm types.Seq, announce bool) *message.CatchUpReq {
	m := &message.CatchUpReq{From: p.id, Watermark: wm, Announce: announce}
	if err := message.Sign(env, m, &m.Sig); err != nil {
		env.Logf("core: signing CatchUpReq: %v", err)
		return nil
	}
	return m
}

// beginCatchUp starts (or retries) the restart catch-up: multicast our
// watermark and keep retrying until enough peers' answers complete it.
// The retry timer is armed before anything that can fail, so a transient
// error (or a lost multicast) self-heals on the next tick instead of
// wedging the process in the catching-up state forever.
func (p *Process) beginCatchUp(env runtime.Env) {
	if !p.catchingUp.Load() {
		return
	}
	if p.catchupTimer != nil {
		p.catchupTimer.Stop()
	}
	p.catchupTimer = env.SetTimer(catchUpRetryIntervals*p.cfg.BatchInterval, func() {
		p.catchupTimer = nil
		p.beginCatchUp(env)
	})
	if m := p.catchUpReq(env, p.deliveredUpTo, false); m != nil {
		p.multicastAll(env, m)
	}
}

// finishCatchUp ends the catch-up phase and resumes the duties that were
// held back: a restored primary calls resumeProposing only now, so it
// cannot propose into a sequence range it has not yet recovered.
func (p *Process) finishCatchUp(env runtime.Env) {
	if !p.catchingUp.Load() {
		return
	}
	p.catchingUp.Store(false)
	p.catchupFrom = nil
	p.catchupMaxUpTo = 0
	p.m.catchingUp.Set(0)
	p.m.catchups.Inc()
	p.m.syncRegime(p)
	if p.catchupTimer != nil {
		p.catchupTimer.Stop()
		p.catchupTimer = nil
	}
	p.nextSeq = max(p.nextSeq, p.deliveredUpTo+1)
	p.applyPairResume()
	p.resumeProposing(env)
	if p.isShadowNow() {
		p.shadowNextPropose = max(p.shadowNextPropose, p.deliveredUpTo+1)
		p.armShadowExpectations(env)
	}
}

// onCatchUpReq handles a peer's watermark: record it for cluster-watermark
// pruning and, unless it is a gossip-only announcement, answer with the
// committed subjects the requester is missing and the orders tracked
// above them.
func (p *Process) onCatchUpReq(env runtime.Env, from types.NodeID, m *message.CatchUpReq) {
	if m.From != from || !p.topo.IsProcess(from) {
		return
	}
	if err := m.VerifySig(env); err != nil {
		env.Logf("core: bad CatchUpReq from %v: %v", from, err)
		return
	}
	if m.Announce {
		// Only announcements feed the prune floor: they carry watermarks
		// the sender's checkpoint store reported DURABLE. A plain request
		// carries the sender's live (possibly unsynced) watermark — if it
		// raised the floor and the sender then crashed back to an older
		// durable checkpoint, the history it needs would already be gone.
		if from != p.id && m.Watermark > p.peerCkpt[from] {
			p.peerCkpt[from] = m.Watermark
		}
		p.maybePruneHistory()
		return
	}
	if from == p.id || p.muted() {
		return
	}
	// Responder-side throttle: answers are expensive (batches + request
	// payloads, signed), so a peer stuck — or lying — at the same
	// watermark gets at most one answer per batch interval. A requester
	// making progress (watermark advanced) is served immediately, so
	// honest windowed catch-up runs at full speed.
	if prev, ok := p.catchupServed[from]; ok {
		if m.Watermark <= prev.wm && env.Now().Sub(prev.at) < p.cfg.BatchInterval {
			return
		}
	}
	if p.catchupServed == nil {
		p.catchupServed = make(map[types.NodeID]servedMark)
	}
	p.catchupServed[from] = servedMark{wm: m.Watermark, at: env.Now()}
	p.send(env, from, p.buildCatchUp(env, from, m.Watermark))
	p.resendOrders(env, from, m.Watermark)
}

// resendOrders re-sends verbatim the orders this process tracks above
// both watermarks, which the peer may never have received — how a CT
// coordinator re-serves orders nobody got. The peer tracks and acks them
// as any order. Proposals are never re-sent.
func (p *Process) resendOrders(env runtime.Env, to types.NodeID, wm types.Seq) {
	size := 0
	for seq := max(wm, p.deliveredUpTo) + 1; seq < p.nextExpected; {
		t, ok := p.trackers[seq]
		if !ok {
			return
		}
		seq = trackerLastSeq(t) + 1
		if t.Batch == nil || len(t.Batch.Sig2) == 0 && t.Batch.Shadow != types.Nil {
			continue
		}
		if size += len(t.Batch.Marshal()); size > maxFetchAnswerBytes {
			return
		}
		p.send(env, to, t.Batch)
	}
}

// servedMark records the last catch-up answer built for one peer.
type servedMark struct {
	wm types.Seq
	at time.Time
}

// buildCatchUp assembles the answer to a catch-up request: the committed
// subjects with sequence numbers in (base, deliveredUpTo], walked
// contiguously through the committed trackers (capped at maxCatchUpSeqs;
// the requester re-requests from its new watermark), the request payloads
// the batches reference, and our proof of commitment for the highest
// committed batch — the same evidence a BackLog carries.
func (p *Process) buildCatchUp(env runtime.Env, from types.NodeID, base types.Seq) *message.CatchUp {
	cu := &message.CatchUp{
		From:         p.id,
		Base:         base,
		UpTo:         p.deliveredUpTo,
		MaxCommitted: p.lastCommitted.Proof(),
	}
	// When the requester is our active pair counterpart under the current
	// coordinating regime, tell it the exact proposal sequence we expect
	// next. A checkpoint or journal floor can only approximate it across a
	// crash window; we know it precisely, and the requester's first
	// post-restart proposal must match it exactly (the shadow's
	// value-domain check refuses both reuse and skips).
	if p.pair != nil && p.pair.Active() && from == p.pair.Counterpart() && p.installed {
		switch {
		case p.isShadowNow():
			cu.PairNextPropose = p.shadowNextPropose
		case p.isPrimaryNow():
			cu.PairNextPropose = p.nextSeq
		}
	}
	// Walk the committed history contiguously — pruned or non-contiguous,
	// serve what we have — byte-bounded, but always carrying at least one
	// subject so every answer makes progress.
	seen := make(map[message.ReqID]bool)
	size := 0
	for next := base + 1; next <= p.deliveredUpTo && next-base <= maxCatchUpSeqs; {
		t, ok := p.trackers[next]
		if !ok || !t.Committed {
			break
		}
		var reqs []*message.Request
		if t.Batch != nil {
			size += len(t.Batch.Marshal())
			for _, e := range t.Batch.Entries {
				if req, ok := p.pool.Get(e.Req); ok && !seen[e.Req] {
					reqs = append(reqs, req)
					size += len(req.Marshal())
				}
			}
		} else {
			size += len(t.StartMsg.Marshal())
		}
		if size > maxCatchUpBytes && len(cu.Batches)+len(cu.Starts) > 0 {
			break
		}
		if t.Batch != nil {
			cu.Batches = append(cu.Batches, t.Batch)
		} else {
			cu.Starts = append(cu.Starts, t.StartMsg)
		}
		for _, r := range reqs {
			seen[r.ID()] = true
			cu.Requests = append(cu.Requests, r)
		}
		next = trackerLastSeq(t) + 1
	}
	if err := message.Sign(env, cu, &cu.Sig); err != nil {
		env.Logf("core: signing CatchUp: %v", err)
	}
	return cu
}

// onCatchUp verifies and adopts a catch-up answer. Verification mirrors
// verifyBackLog: the responder's signature, the max-committed proof at
// quorum, and the pair signatures of every carried subject (assumption
// 3(a)(ii)/3(b)(ii): a pair-endorsed order for an already-committed
// sequence range cannot conflict with the committed one). Answers are
// adopted even after a restart round formally ended — responses race, and
// a laggard's empty answer finishing the phase must not discard a fuller
// answer arriving a moment later — and by a live process that pulled.
func (p *Process) onCatchUp(env runtime.Env, from types.NodeID, m *message.CatchUp) {
	if m.From != from || !p.topo.IsProcess(from) || from == p.id {
		return
	}
	if err := m.VerifySig(env); err != nil {
		env.Logf("core: bad CatchUp from %v: %v", from, err)
		return
	}
	if err := p.verifyCommittedEvidence(env, m.MaxCommitted, m.Batches, m.Starts); err != nil {
		env.Logf("core: rejecting CatchUp from %v: %v", from, err)
		return
	}
	// Request payloads first, so the replica layer can execute the batches
	// the moment they deliver.
	for _, req := range m.Requests {
		p.pool.Add(req)
	}
	before := p.deliveredUpTo
	p.adoptCatchUp(env, m)
	// A live process's proposal counters are its own: a pull only fills
	// history, whatever the counterpart expects next.
	if m.PairNextPropose > 0 && p.pair != nil && from == p.pair.Counterpart() && p.catchingUp.Load() {
		p.pairResume = m.PairNextPropose
		p.applyPairResume()
	}
	// Trust only the watermark the answer substantiates: the commit
	// proof's sequence range and the carried subjects themselves. A bare
	// UpTo claim is just a number — folding it into the finish gate
	// unexamined would let one faulty peer (a validly signed empty answer
	// with UpTo = 2^60) hold a correct restarted process in the
	// catching-up state forever.
	upTo := min(m.UpTo, credibleUpTo(m))
	if p.catchingUp.Load() {
		if p.catchupFrom == nil {
			p.catchupFrom = make(map[types.NodeID]bool)
		}
		p.catchupFrom[from] = true
		if upTo > p.catchupMaxUpTo {
			p.catchupMaxUpTo = upTo
			p.m.catchupTarget.SetInt(int64(upTo))
		}
	}
	switch {
	case p.deliveredUpTo < upTo && p.deliveredUpTo > before:
		// Capped response that made progress: pull the next window from
		// the same peer. Without progress (its history below our
		// watermark is gone, or it restored a checkpoint itself) an
		// immediate re-request would just ping-pong at network speed —
		// the catch-up retry timer re-multicasts at its own cadence
		// instead.
		if req := p.catchUpReq(env, p.deliveredUpTo, false); req != nil {
			p.send(env, from, req)
		}
	case p.catchingUp.Load() && p.deliveredUpTo >= p.catchupMaxUpTo &&
		len(p.catchupFrom) >= p.catchupFinishAnswers() && !p.needPairAnswer():
		// Enough distinct peers answered and none of them knew more than
		// we now hold. Requiring f+1 answers keeps a single behind peer's
		// early empty answer — the cheapest to build, so often the first
		// to arrive — from ending the catch-up while the rest of the
		// cluster is far ahead; and whenever ordering itself is live
		// (n-f correct processes), f+1 answers eventually arrive, so
		// liveness is preserved. Later answers are adopted regardless
		// (see above), which covers the residual race.
		p.finishCatchUp(env)
	}
}

// needPairAnswer reports whether catch-up completion must wait for the
// pair counterpart's answer: a restored primary with an active shadow may
// not resume proposing until it has learned the exact sequence the shadow
// expects (proposing from a checkpoint- or journal-derived guess risks a
// value-domain refusal and a spurious fail signal). The wait ends as soon
// as the counterpart answers at all — an answer without PairNextPropose
// means the counterpart does not regard us as its active primary, and
// holding out for a number it will never send would wedge the restart (a
// dead counterpart plus our own restart is two faults in one pair, outside
// the fault model; the usual expectation machinery handles it).
func (p *Process) needPairAnswer() bool {
	return p.isPrimaryNow() && p.pair != nil && p.pair.Active() &&
		p.pairResume == 0 && !p.catchupFrom[p.pair.Counterpart()]
}

// applyPairResume repositions the proposal counters to the counterpart's
// answer. The restored primary adopts it exactly — even downward: journal
// floors over-approximate across a crash (proposals journalled but never
// sent), and sequence numbers the dead incarnation reserved without the
// shadow endorsing them never reached anyone else, so re-proposing them is
// safe and required (a skip is refused just like a reuse). Adoption is
// exact only until the first post-restart proposal (proposedSince); after
// that a late answer is stale. The shadow side only ever raises its
// expectation: proposals it endorsed before crashing are out with n
// processes, so expecting anything lower would refuse the primary's next
// honest proposal.
func (p *Process) applyPairResume() {
	if p.pairResume == 0 || p.pair == nil || !p.pair.Active() {
		return
	}
	// Never step on committed history, whatever the counterpart says.
	r := max(p.pairResume, p.deliveredUpTo+1)
	if p.isPrimaryNow() && !p.proposedSince {
		p.nextSeq = r
	}
	if p.isShadowNow() {
		p.shadowNextPropose = max(p.shadowNextPropose, r)
	}
}

// catchupFinishAnswers is how many distinct peers must have answered
// before an all-caught-up conclusion is trusted: f+1, capped at the
// number of peers.
func (p *Process) catchupFinishAnswers() int { return min(p.fEff()+1, len(p.all)-1) }

// credibleUpTo returns the highest sequence number a CatchUp's evidence
// substantiates: the commit proof's range and the carried (pair-signed)
// subjects. Anything the responder claims beyond it is taken as zero.
func credibleUpTo(m *message.CatchUp) types.Seq {
	var cred types.Seq
	if m.MaxCommitted != nil && m.MaxCommitted.Batch != nil {
		cred = m.MaxCommitted.Batch.LastSeq()
	}
	for _, b := range m.Batches {
		cred = max(cred, b.LastSeq())
	}
	for _, s := range m.Starts {
		cred = max(cred, s.StartSeq)
	}
	return cred
}

// adoptCatchUp installs the carried committed subjects contiguously above
// our watermark — the adoptNewBackLog path, minus the abandon step (a
// catch-up never invalidates in-flight trackers, it only fills history) —
// then lets delivery and the buffered-future drain advance normally.
func (p *Process) adoptCatchUp(env runtime.Env, m *message.CatchUp) {
	type item struct {
		first, last types.Seq
		batch       *message.OrderBatch
		start       *message.Start
	}
	items := make([]item, 0, len(m.Batches)+len(m.Starts))
	for _, b := range m.Batches {
		items = append(items, item{first: b.FirstSeq, last: b.LastSeq(), batch: b})
	}
	for _, s := range m.Starts {
		items = append(items, item{first: s.StartSeq, last: s.StartSeq, start: s})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].first < items[j].first })
	next := p.deliveredUpTo + 1
	for _, it := range items {
		if it.last < next {
			continue // already delivered
		}
		if it.first > next {
			break // gap: nothing above it can be adopted contiguously
		}
		if it.batch != nil {
			p.installCommittedBatch(env, it.batch)
		} else {
			p.installCommittedStart(env, it.start)
		}
		next = it.last + 1
	}
	p.advanceDelivery(env)
	p.nextExpected = max(p.nextExpected, p.deliveredUpTo+1)
	// Batches buffered for a range the answer filled are history now.
	for seq := range p.future {
		if seq < p.nextExpected {
			delete(p.future, seq)
		}
	}
	p.drainFuture(env)
}

// installCommittedStart records a historically committed Start: its
// delivery advances the watermark like any subject, and it documents a
// regime change this process slept through, so the view and rank advance
// with it.
func (p *Process) installCommittedStart(env runtime.Env, st *message.Start) {
	digest := env.ScratchDigest(st.SignedBody())
	t, ok := p.trackers[st.StartSeq]
	if !ok || !bytes.Equal(t.Digest, digest) {
		t = NewStartTracker(&p.trackerSlab, st, digest)
		p.trackers[st.StartSeq] = t
	}
	t.Committed = true
	if st.View >= p.view {
		p.view = st.View
		p.rank = st.Coord
		p.installed = true
		p.installing = false
		p.m.syncRegime(p)
	}
}

// maybePruneHistory drops committed-order history below the cluster-wide
// checkpoint watermark: the minimum over our own announced durable
// checkpoint and every peer's. A restarted process restores at least its
// last announced (hence durable) checkpoint, so nothing below the minimum
// can ever be requested in a CatchUp again — retaining it would be the
// unbounded growth this watermark exists to prevent. Processes that have
// never announced hold the minimum at zero, so pruning only begins once
// the whole cluster checkpoints.
func (p *Process) maybePruneHistory() {
	if p.peerCkpt == nil {
		return
	}
	wm := p.announcedWM
	for _, id := range p.all {
		if id == p.id {
			continue
		}
		if w := p.peerCkpt[id]; w < wm {
			wm = w
		}
	}
	if wm <= p.prunedBelow {
		return
	}
	p.prunedBelow = wm
	for seq, t := range p.trackers {
		if t.Committed && trackerLastSeq(t) < wm {
			delete(p.trackers, seq)
		}
	}
	for seq := range p.pendingAcks {
		if seq < wm {
			p.dropPendingAcks(seq)
		}
	}
}

// trackerLastSeq returns the highest sequence number a tracker's subject
// covers.
func trackerLastSeq(t *Tracker) types.Seq {
	if t.Batch != nil {
		return t.Batch.LastSeq()
	}
	if t.StartMsg != nil {
		return t.StartMsg.StartSeq
	}
	return t.FirstSeq
}

// verifyCommittedEvidence checks a committed-order carrier the way
// verifyBackLog checks a BackLog: the optional max-committed proof at the
// effective quorum, and the (pair) signatures of every carried subject.
func (p *Process) verifyCommittedEvidence(env runtime.Env, proof *message.CommitProof,
	batches []*message.OrderBatch, starts []*message.Start) error {
	if proof != nil {
		if err := proof.Verify(env, p.quorumEff()); err != nil {
			return fmt.Errorf("max-committed proof: %w", err)
		}
	}
	for _, b := range batches {
		if err := b.VerifySigs(env); err != nil {
			return fmt.Errorf("batch %d: %w", b.FirstSeq, err)
		}
	}
	for _, s := range starts {
		if err := s.VerifySigs(env); err != nil {
			return fmt.Errorf("start %d: %w", s.StartSeq, err)
		}
	}
	return nil
}

// --- observability (tests and operators) ---

// CatchingUp reports whether the process is still recovering committed
// history after a checkpoint restore. Safe from any goroutine: it is the
// readiness signal, and must not depend on a metrics registry being wired.
func (p *Process) CatchingUp() bool { return p.catchingUp.Load() }

// CommittedLogLen returns how many committed subjects are retained: the
// committed trackers, which the cluster-watermark prune bounds on long
// uptimes.
func (p *Process) CommittedLogLen() int {
	n := 0
	for _, t := range p.trackers {
		if t.Committed {
			n++
		}
	}
	return n
}

// HistoryPrunedBelow returns the cluster-wide checkpoint watermark this
// process has pruned its committed-order history below.
func (p *Process) HistoryPrunedBelow() types.Seq { return p.prunedBelow }

// OrderDigest returns a copy of the rolling committed-order digest chain;
// processes at the same delivered watermark hold identical chains.
func (p *Process) OrderDigest() []byte { return append([]byte(nil), p.orderDigest...) }
