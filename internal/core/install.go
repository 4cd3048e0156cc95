package core

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sort"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/fsp"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// This file implements Section 3.2 (fail-signalling) and Section 4.2 (the
// install part of the protocol, steps IN1-IN5).

// onFailSignal handles an authentic doubly-signed fail-signal from any
// source: the emitting pair member, or a third process echoing it.
func (p *Process) onFailSignal(env runtime.Env, from types.NodeID, fs *message.FailSignal) {
	pc, ps, paired := p.candidate(fs.Pair)
	if !paired {
		return
	}
	switch {
	case p.pair != nil && fs.Pair == types.Rank(p.pairIdx):
		if fs.Epoch != p.pair.Epoch() {
			return
		}
	case p.scr():
		// Replays from before a pair's recovery are rejected.
		if !p.scrFailSignalEpochOK(fs) {
			return
		}
	default:
		if fs.Epoch != 0 {
			return
		}
	}
	if err := fs.Verify(env, pc, ps); err != nil {
		env.Logf("core: rejecting fail-signal for pair %d: %v", fs.Pair, err)
		return
	}
	prev := p.failSignalled[fs.Pair]
	firstSighting := prev == nil || prev.Epoch < fs.Epoch
	if firstSighting {
		p.failSignalled[fs.Pair] = fs
		// SC3 support: echo to the first signatory in case the second
		// signatory maliciously omitted to send it to its counterpart.
		if fs.First != p.id && fs.Second != p.id {
			p.send(env, fs.First, fs)
		}
		p.m.failSignals.Inc()
		if p.cfg.OnFailSignal != nil && fs.Second != p.id {
			p.cfg.OnFailSignal(FailSignalEvent{
				Node: p.id, Pair: fs.Pair, Emitter: false,
				Reason: "received", At: env.Now(),
			})
		}
	}
	// If it concerns our own pair, run the Section 3.2 member rule (emit
	// our own fail-signal, stop collaborating).
	if p.pair != nil && fs.Pair == types.Rank(p.pairIdx) {
		p.pair.HandleFailSignal(env, fs)
	}
	// IN1 trigger: the acting coordinator pair has fail-signalled.
	if firstSighting && fs.Pair == p.rank && (p.installed || p.installing) {
		p.beginInstall(env, fs)
	}
}

// beginInstall is IN1: advance c, quiesce ordering, and multicast the
// BackLog.
func (p *Process) beginInstall(env runtime.Env, fs *message.FailSignal) {
	p.installing = true
	p.installed = false
	if p.batchTimer != nil {
		p.batchTimer.Stop()
		p.batchTimer = nil
	}
	for k := range p.inflight {
		delete(p.inflight, k)
	}
	if p.scr() {
		// SCR rotates through the f+1 pairs by view number; an unwilling
		// candidate announces itself rather than being skipped a priori.
		p.rank = p.scrAdvanceView()
	} else {
		// SC: advance to the next candidate that has not fail-signalled.
		next := p.rank + 1
		for int(next) <= p.topo.NumCandidates() {
			if _, _, isPair := p.candidate(next); !isPair {
				break // the unpaired candidate never fail-signals
			}
			if p.failSignalled[next] == nil {
				break
			}
			next++
		}
		if int(next) > p.topo.NumCandidates() {
			env.Logf("core: all coordinator candidates exhausted")
			return
		}
		p.rank = next
		p.view = types.View(next)
	}
	p.backlogs = make(map[types.NodeID]*message.BackLog)
	p.myStart = nil
	p.startMsg = nil
	p.startDigest = nil
	p.startSigs = make(map[types.NodeID]crypto.Signature)
	p.tuplesSent = false
	p.pendingTuples = nil
	p.pendingStartSig = nil
	clear(p.earlyProposals)
	for seq := range p.pendingAcks {
		p.dropPendingAcks(seq)
	}
	// The deposed regime's deferred proposals are abandoned with its
	// acks; its delivered stragglers are asked of a live holder from now
	// on, not of its primary.
	p.dropMissing()
	// Orders from the deposed coordinator that were never acked cannot
	// complete; drop the buffer (acked ones travel in BackLogs).
	p.future = make(map[types.Seq]*message.OrderBatch)
	// Unwilling bookkeeping for views we have moved past can never be
	// consulted again (onUnwilling requires u.View == p.view); without
	// this prune the two maps grow by one entry per view forever.
	p.pruneUnwillingBelow(p.view)

	bl := &message.BackLog{
		From:         p.id,
		NewCoord:     p.rank,
		View:         p.view,
		FailSig:      fs,
		MaxCommitted: p.lastCommitted.Proof(),
		Uncommitted:  p.ackedUncommitted(),
		Padding:      make([]byte, p.cfg.PadBacklogBytes),
	}
	if err := message.Sign(env, bl, &bl.Sig); err != nil {
		env.Logf("core: signing backlog: %v", err)
		return
	}
	p.multicastAll(env, bl)
	// SCR: if we are the proposed candidate pair and not up, say so.
	p.scrMaybeUnwilling(env)
}

// pruneUnwillingBelow drops unwilling bookkeeping for every view below v.
func (p *Process) pruneUnwillingBelow(v types.View) {
	for view := range p.unwillingSeen {
		if view < v {
			delete(p.unwillingSeen, view)
		}
	}
	for view := range p.unwillingSent {
		if view < v {
			delete(p.unwillingSent, view)
		}
	}
}

// ackedUncommitted returns the batches this process acked but has not
// committed, in sequence order.
func (p *Process) ackedUncommitted() []*message.OrderBatch {
	var out []*message.OrderBatch
	for _, t := range p.trackers {
		if t.Kind == message.SubjectBatch && t.AckSent && !t.Committed && t.Batch != nil {
			out = append(out, t.Batch)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FirstSeq < out[j].FirstSeq })
	return out
}

// onBackLog collects BackLogs; the new coordinator pair acts on them (IN2).
func (p *Process) onBackLog(env runtime.Env, from types.NodeID, bl *message.BackLog) {
	// A BackLog carries the triggering fail-signal: processing it first
	// lets a process that missed the fail-signal catch up.
	if bl.FailSig != nil {
		p.onFailSignal(env, from, bl.FailSig)
	}
	if !p.installing || bl.NewCoord != p.rank || bl.View != p.view || bl.From != from {
		return
	}
	pc, ps, paired := p.candidate(p.rank)
	interested := p.id == pc || (paired && p.id == ps)
	if !interested {
		return
	}
	if _, dup := p.backlogs[from]; dup {
		return
	}
	if err := p.verifyBackLog(env, bl); err != nil {
		env.Logf("core: rejecting backlog from %v: %v", from, err)
		return
	}
	p.backlogs[from] = bl
	if p.id == pc && p.myStart == nil && len(p.backlogs) >= p.quorumEff() {
		p.computeStart(env)
	}
}

// verifyBackLog checks a BackLog's own signature and its committed-order
// proof. (The embedded fail-signal was verified by onFailSignal.) The
// proof-and-subject verification is shared with the CatchUp path
// (verifyCommittedEvidence).
func (p *Process) verifyBackLog(env runtime.Env, bl *message.BackLog) error {
	if err := bl.VerifySig(env); err != nil {
		return err
	}
	return p.verifyCommittedEvidence(env, bl.MaxCommitted, bl.Uncommitted, nil)
}

// computeStart is the deciding half of IN2 at the new primary pc.
func (p *Process) computeStart(env runtime.Env) {
	if p.pair != nil && !p.pair.Active() {
		return // we fail-signalled ourselves; the next candidate takes over
	}
	pc, ps := p.candidateIDs()
	start, err := buildStart(env, p.rank, p.view, p.backlogs, p.fEff(), pc, ps)
	if err != nil {
		env.Logf("core: computing Start: %v", err)
		return
	}
	if err := message.Sign(env, start, &start.Sig1); err != nil {
		env.Logf("core: signing Start: %v", err)
		return
	}
	p.myStart = start
	_, shadowID, paired := p.candidate(p.rank)
	if paired {
		// Send the 1-signed Start together with the n-f BackLogs to the
		// shadow for verification and endorsement.
		pairMsg := &message.PairStart{Start: start, BackLogs: p.sortedBackLogs()}
		p.send(env, shadowID, pairMsg)
		p.pair.Expect(env, fsp.StartKey(), 0)
	} else {
		// The unpaired (f+1)th candidate multicasts its Start directly.
		p.multicastAll(env, start)
	}
}

func (p *Process) candidateIDs() (types.NodeID, types.NodeID) {
	pc, ps, paired := p.candidate(p.rank)
	if !paired {
		ps = types.Nil
	}
	return pc, ps
}

func (p *Process) sortedBackLogs() []*message.BackLog {
	out := make([]*message.BackLog, 0, len(p.backlogs))
	for _, bl := range p.backlogs {
		out = append(out, bl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].From < out[j].From })
	return out
}

// buildStart deterministically computes the Start (NewBackLog and start_o)
// from a set of BackLogs, as specified at the end of Section 4.2:
//
//   - max{max_committed} is the largest committed sequence number in any
//     proof; the batch carrying it is included first.
//   - every uncommitted order above it present in any BackLog is included,
//     walking sequence numbers contiguously; where BackLogs conflict (two
//     authentic doubly-signed orders for the same number), the version
//     present in at least f+1 BackLogs wins — a committed order is
//     guaranteed that many occurrences, a never-committed one may simply
//     be dropped and its requests re-ordered later.
//   - a gap terminates the walk: nothing above a gap can have committed
//     (commits follow in-sequence acks).
//
// Both pc and p'c run this function; p'c endorses only if pc's Start
// matches its own computation.
func buildStart(env runtime.Env, rank types.Rank, view types.View,
	backlogs map[types.NodeID]*message.BackLog, fEff int,
	primary, shadow types.NodeID) (*message.Start, error) {

	var (
		maxCommitted types.Seq
		maxBatch     *message.OrderBatch
	)
	for _, bl := range backlogs {
		if bl.MaxCommitted == nil {
			continue
		}
		if last := bl.MaxCommitted.Batch.LastSeq(); last > maxCommitted {
			maxCommitted = last
			maxBatch = bl.MaxCommitted.Batch
		}
	}
	// Collect uncommitted candidates above max{max_committed}, counting
	// occurrences per (FirstSeq, digest).
	type version struct {
		batch *message.OrderBatch
		count int
	}
	bySeq := make(map[types.Seq][]*version)
	for _, bl := range backlogs {
		for _, b := range bl.Uncommitted {
			if b.FirstSeq <= maxCommitted {
				continue
			}
			digest := b.BodyDigest(env)
			versions := bySeq[b.FirstSeq]
			found := false
			for _, v := range versions {
				if bytes.Equal(v.batch.BodyDigest(env), digest) {
					v.count++
					found = true
					break
				}
			}
			if !found {
				bySeq[b.FirstSeq] = append(versions, &version{batch: b, count: 1})
			}
		}
	}
	var newBackLog []*message.OrderBatch
	if maxBatch != nil {
		newBackLog = append(newBackLog, maxBatch)
	}
	next := maxCommitted + 1
	for {
		versions, ok := bySeq[next]
		if !ok {
			break
		}
		var chosen *message.OrderBatch
		if len(versions) == 1 {
			chosen = versions[0].batch
		} else {
			// Conflicting doubly-signed orders: prefer the possibly
			// committed one (>= f+1 occurrences); deterministic tie-break
			// on digest keeps pc and p'c in agreement.
			sort.Slice(versions, func(i, j int) bool {
				if versions[i].count != versions[j].count {
					return versions[i].count > versions[j].count
				}
				return bytes.Compare(versions[i].batch.BodyDigest(env), versions[j].batch.BodyDigest(env)) < 0
			})
			if versions[0].count >= fEff+1 {
				chosen = versions[0].batch
			}
		}
		if chosen == nil {
			break
		}
		newBackLog = append(newBackLog, chosen)
		next = chosen.LastSeq() + 1
	}
	return &message.Start{
		Coord:           rank,
		View:            view,
		StartSeq:        next, // start_o: the first free sequence number
		MaxCommittedSeq: maxCommitted,
		NewBackLog:      newBackLog,
		Primary:         primary,
		Shadow:          shadow,
	}, nil
}

// onPairStart is the verifying half of IN2 at the new shadow p'c.
func (p *Process) onPairStart(env runtime.Env, from types.NodeID, ps *message.PairStart) {
	if p.pair == nil || !p.pair.Active() || from != p.pair.Counterpart() {
		return
	}
	if !p.installing || ps.Start == nil || ps.Start.Coord != p.rank {
		return
	}
	pc, shadowID, paired := p.candidate(p.rank)
	if !paired || shadowID != p.id {
		return
	}
	// Verify the supplied BackLogs independently.
	verified := make(map[types.NodeID]*message.BackLog)
	for _, bl := range ps.BackLogs {
		if _, dup := verified[bl.From]; dup {
			p.pair.Fail(env, "value-domain: duplicate backlog in PairStart")
			p.pair.MarkPermanentlyDown()
			return
		}
		if err := p.verifyBackLog(env, bl); err != nil {
			p.pair.Fail(env, fmt.Sprintf("value-domain: invalid backlog in PairStart: %v", err))
			p.pair.MarkPermanentlyDown()
			return
		}
		verified[bl.From] = bl
	}
	if len(verified) < p.quorumEff() {
		p.pair.Fail(env, fmt.Sprintf("value-domain: PairStart carries %d backlogs, need %d",
			len(verified), p.quorumEff()))
		p.pair.MarkPermanentlyDown()
		return
	}
	// Recompute the Start deterministically and compare.
	expected, err := buildStart(env, p.rank, p.view, verified, p.fEff(), pc, p.id)
	if err != nil {
		env.Logf("core: recomputing Start: %v", err)
		return
	}
	if !bytes.Equal(expected.SignedBody(), ps.Start.SignedBody()) {
		p.pair.Fail(env, "value-domain: pc computed Start improperly")
		p.pair.MarkPermanentlyDown()
		return
	}
	if err := message.VerifySingle(env, pc, ps.Start.SignedBody(), ps.Start.Sig1); err != nil {
		p.pair.Fail(env, fmt.Sprintf("value-domain: Start signature: %v", err))
		p.pair.MarkPermanentlyDown()
		return
	}
	endorsed, err := ps.Start.Endorse(env)
	if err != nil {
		env.Logf("core: endorsing Start: %v", err)
		return
	}
	p.multicastAll(env, endorsed)
}

// onStart handles the endorsed Start (the start of IN3/IN5 at every
// process).
func (p *Process) onStart(env runtime.Env, from types.NodeID, st *message.Start) {
	if !p.installing || st.Coord != p.rank || st.View != p.view {
		return
	}
	pc, ps, paired := p.candidate(p.rank)
	wantShadow := types.Nil
	if paired {
		wantShadow = ps
	}
	if st.Primary != pc || st.Shadow != wantShadow {
		return
	}
	if p.startMsg != nil {
		return // already have it
	}
	if err := st.VerifySigs(env); err != nil {
		env.Logf("core: rejecting Start: %v", err)
		return
	}
	for _, b := range st.NewBackLog {
		if err := b.VerifySigs(env); err != nil {
			env.Logf("core: Start carries invalid batch %d: %v", b.FirstSeq, err)
			return
		}
	}
	p.startMsg = st
	p.startDigest = st.BodyDigest(env)
	// Replay counter-signatures that raced ahead of the Start.
	if len(p.pendingStartSig) > 0 {
		buffered := p.pendingStartSig
		p.pendingStartSig = nil
		for _, ss := range buffered {
			p.onStartSig(env, ss.From, ss)
		}
	}

	isMember := p.id == pc || (paired && p.id == ps)
	if p.id == pc {
		// The endorsed Start coming back discharges the primary's
		// expectation, and pc relays it to everyone (as in the normal
		// part's 2-to-n phase).
		if p.pair != nil {
			p.pairMet(env, fsp.StartKey())
		}
		p.multicastAll(env, st)
	}
	if p.fEff() > 1 && !isMember {
		// IN3: counter-sign and send the tuple to pc and p'c.
		ss := &message.StartSig{From: p.id, Coord: p.rank, View: p.view, StartDigest: p.startDigest}
		if err := message.Sign(env, ss, &ss.Sig); err != nil {
			env.Logf("core: signing StartSig: %v", err)
			return
		}
		p.send(env, pc, ss)
		if paired {
			p.send(env, ps, ss)
		}
	}
	p.tryCompleteInstall(env)
	if isMember {
		p.tryIssueTuples(env)
	}
}

// onStartSig collects IN3 tuples at the coordinator pair.
func (p *Process) onStartSig(env runtime.Env, from types.NodeID, ss *message.StartSig) {
	if !p.installing || ss.Coord != p.rank || ss.View != p.view || ss.From != from {
		return
	}
	pc, ps, paired := p.candidate(p.rank)
	if p.id != pc && !(paired && p.id == ps) {
		return
	}
	if from == pc || (paired && from == ps) {
		return // tuples come from processes other than the pair
	}
	if p.startDigest == nil {
		// The counter-signature outran our copy of the Start; buffer it.
		if len(p.pendingStartSig) < 64 {
			p.pendingStartSig = append(p.pendingStartSig, ss)
		}
		return
	}
	if !bytes.Equal(ss.StartDigest, p.startDigest) {
		return
	}
	if err := ss.VerifySig(env); err != nil {
		env.Logf("core: bad StartSig from %v: %v", from, err)
		return
	}
	p.startSigs[from] = ss.Sig
	p.tryIssueTuples(env)
}

// tryIssueTuples is IN4: once f-1 tuples from distinct other processes are
// in hand, the coordinator pair multicasts them.
func (p *Process) tryIssueTuples(env runtime.Env) {
	if p.tuplesSent || p.startMsg == nil || !p.installing {
		return
	}
	need := p.fEff() - 1
	if len(p.startSigs) < need {
		return
	}
	froms := make([]types.NodeID, 0, len(p.startSigs))
	for id := range p.startSigs {
		froms = append(froms, id)
	}
	sort.Slice(froms, func(i, j int) bool { return froms[i] < froms[j] })
	froms = froms[:need]
	tp := &message.StartTuples{
		From: p.id, Coord: p.rank, View: p.view, StartDigest: p.startDigest,
	}
	for _, id := range froms {
		tp.Froms = append(tp.Froms, id)
		tp.Sigs = append(tp.Sigs, p.startSigs[id])
	}
	if err := message.Sign(env, tp, &tp.Sig); err != nil {
		env.Logf("core: signing StartTuples: %v", err)
		return
	}
	p.tuplesSent = true
	p.multicastAll(env, tp)
	pc, _, _ := p.candidate(p.rank)
	if p.id == pc && p.cfg.OnStartTuplesIssued != nil {
		p.cfg.OnStartTuplesIssued(InstallEvent{
			Node: p.id, Rank: p.rank, StartSeq: p.startMsg.StartSeq, At: env.Now(),
		})
	}
	p.pendingTuples = tp
	p.tryCompleteInstall(env)
}

// onStartTuples is the receiving side of IN4.
func (p *Process) onStartTuples(env runtime.Env, from types.NodeID, tp *message.StartTuples) {
	if !p.installing || tp.Coord != p.rank || tp.View != p.view {
		return
	}
	if p.pendingTuples != nil {
		return
	}
	if len(tp.Froms) < p.fEff()-1 {
		return
	}
	if err := tp.Verify(env); err != nil {
		env.Logf("core: bad StartTuples from %v: %v", from, err)
		return
	}
	p.pendingTuples = tp
	p.tryCompleteInstall(env)
}

// tryCompleteInstall is IN5: with an authentic doubly-signed Start and the
// f-1 identifier-signature tuples (none needed when f = 1), the new
// coordinator is regarded installed and the Start is committed through the
// normal part.
func (p *Process) tryCompleteInstall(env runtime.Env) {
	if !p.installing || p.startMsg == nil {
		return
	}
	if p.fEff() > 1 {
		if p.pendingTuples == nil || !bytes.Equal(p.pendingTuples.StartDigest, p.startDigest) {
			return
		}
	}
	st := p.startMsg
	p.installing = false
	p.installed = true
	// The install is over: unwilling bookkeeping up to and including this
	// view is settled.
	p.pruneUnwillingBelow(p.view + 1)

	// Dumb-process optimization (Section 4.3): mute every fail-signalled
	// pair below us. SC only: it depends on property SC2, which does not
	// hold under the recovery semantics (Section 4.4).
	if !p.scr() {
		p.dumbPairs = 0
		for r := types.Rank(1); r < p.rank; r++ {
			pc, ps, paired := p.candidate(r)
			if !paired {
				continue
			}
			if p.failSignalled[r] != nil {
				p.dumb[pc] = true
				p.dumb[ps] = true
				p.dumbPairs++
			}
		}
	}

	// Adopt the NewBackLog: its batches commit together with the Start.
	p.adoptNewBackLog(env, st)

	// The Start itself is an order message with sequence number start_o;
	// commit it through the normal part.
	p.track(env, NewStartTracker(&p.trackerSlab, st, p.startDigest), st.StartSeq)

	p.m.failovers.Inc()
	p.m.syncRegime(p)
	if p.cfg.OnInstalled != nil {
		p.cfg.OnInstalled(InstallEvent{Node: p.id, Rank: p.rank, StartSeq: st.StartSeq, At: env.Now()})
	}

	// New coordinator duties. The regime change repositions the proposal
	// counter, so any stale inflight window is void.
	for k := range p.inflight {
		delete(p.inflight, k)
	}
	p.m.inflight.SetInt(0)
	if p.isPrimaryNow() {
		p.nextSeq = st.StartSeq + 1
	}
	p.resumeProposing(env)
	if p.isShadowNow() {
		p.shadowNextPropose = st.StartSeq + 1
		p.armShadowExpectations(env)
		p.replayEarlyProposals(env)
	}
}

// replayEarlyProposals runs the proposals onProposal kept while this
// shadow was still installing through the shadow's checks, in sequence
// order, now that IN5 has set the sequence it expects — as onStart replays
// counter-signatures that outran the Start.
func (p *Process) replayEarlyProposals(env runtime.Env) {
	for _, s := range slices.Sorted(maps.Keys(p.earlyProposals)) {
		b := p.earlyProposals[s]
		delete(p.earlyProposals, s)
		p.onProposal(env, b)
	}
}

// adoptNewBackLog installs the Start's batches as committed-by-Start:
// they deliver when the Start commits. Batches this process had acked that
// the Start dropped are abandoned and their requests re-ordered.
func (p *Process) adoptNewBackLog(env runtime.Env, st *message.Start) {
	inStart := make(map[types.Seq][]byte)
	for _, b := range st.NewBackLog {
		inStart[b.FirstSeq] = b.BodyDigest(env)
	}
	// Abandon acked-but-uncommitted trackers that are not in the Start.
	for seq, t := range p.trackers {
		if t.Committed || t.Kind != message.SubjectBatch || t.Batch == nil {
			continue
		}
		d, kept := inStart[seq]
		if kept && bytes.Equal(d, t.Digest) {
			continue
		}
		delete(p.trackers, seq)
		for _, e := range t.Batch.Entries {
			p.pool.UnmarkOrdered(e.Req)
		}
	}
	// Install the Start's batches as committed (their delivery is gated by
	// contiguity, and the Start's own commit confirms the regime change;
	// per SC1 the pair-endorsed Start is correct).
	for _, b := range st.NewBackLog {
		p.installCommittedBatch(env, b)
	}
	p.advanceDelivery(env)
}

// installCommittedBatch records one pair-endorsed batch as committed —
// the adoption step shared by adoptNewBackLog and the restart catch-up
// path. Already-delivered ranges are skipped; delivery itself stays gated
// by contiguity in advanceDelivery.
func (p *Process) installCommittedBatch(env runtime.Env, b *message.OrderBatch) {
	if b.LastSeq() <= p.deliveredUpTo {
		return
	}
	digest := env.ScratchDigest(b.SignedBody())
	t, ok := p.trackers[b.FirstSeq]
	if !ok || !bytes.Equal(t.Digest, digest) {
		t = NewBatchTracker(&p.trackerSlab, b, digest)
		p.trackers[b.FirstSeq] = t
	}
	for _, e := range b.Entries {
		p.pool.MarkOrdered(e.Req)
	}
	t.Committed = true
}

// armShadowExpectations re-arms the per-request time-domain monitors when
// this process becomes the acting shadow.
func (p *Process) armShadowExpectations(env runtime.Env) {
	if p.pair == nil || !p.pair.Active() {
		return
	}
	for _, r := range p.pool.Pending() {
		p.pair.Expect(env, fsp.OrderKey(r.ID()), p.cfg.BatchInterval)
	}
}
