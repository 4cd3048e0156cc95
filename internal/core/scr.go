package core

import (
	"github.com/sof-repro/sof/internal/fsp"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// This file implements the protocol extension for the Signal-on-Crash and
// Recovery set-up (Section 4.4), active when the topology's protocol is
// types.SCR:
//
//   - n = 3f+2 with f+1 pairs; only pairs act as coordinators.
//   - Timing suspicions may be false (assumption 3(b)(i)), so SC2 no
//     longer holds: fail-signalled pairs may recover. Pair status is
//     {up, down, permanently_down}; value-domain failures are permanent.
//   - The coordinator for view v is the pair of rank v mod (f+1) (f+1
//     when the remainder is 0). A candidate pair that is not up when its
//     view is proposed multicasts Unwilling(v) carrying its fail-signal;
//     receivers echo it to both members and move to view v+1. Thus
//     non-coordinator processes never wait on a timeout: they either see
//     view v installed or Unwilling(v).
//   - Down pairs probe each other over the pair link with PairBeats that
//     carry fresh pre-signed fail-signal material for the next epoch;
//     mutually timely beats restart the pair optimistically.
//
// The dumb-process optimization does not apply in SCR mode (it depends on
// SC2): IN5 mutes replaced pairs under SC only.

// scr reports whether the process runs the recovery extension.
func (p *Process) scr() bool { return p.topo.Protocol == types.SCR }

// scrAdvanceView moves to the next view and returns the new candidate
// rank; SC instead advances the rank directly (skipping fail-signalled
// candidates), see beginInstall.
func (p *Process) scrAdvanceView() types.Rank {
	p.view++
	return p.topo.CandidateForView(p.view)
}

// scrFailSignalEpochOK checks an incoming fail-signal's epoch for pairs
// other than our own: replays from before a pair's recovery are rejected,
// newer epochs advance our knowledge.
func (p *Process) scrFailSignalEpochOK(fs *message.FailSignal) bool {
	if fs.Epoch < p.pairEpochs[fs.Pair] {
		return false
	}
	p.pairEpochs[fs.Pair] = fs.Epoch
	return true
}

// scrMaybeUnwilling makes a member of the proposed coordinator pair
// announce its unwillingness when its pair is not up.
func (p *Process) scrMaybeUnwilling(env runtime.Env) {
	if !p.scr() || !p.installing || p.pair == nil {
		return
	}
	if types.Rank(p.pairIdx) != p.rank || p.pair.Active() {
		return
	}
	if p.unwillingSent[p.view] {
		return
	}
	p.unwillingSent[p.view] = true
	u := &message.Unwilling{From: p.id, View: p.view, FailSig: p.pair.Emitted()}
	if u.FailSig == nil {
		u.FailSig = p.failSignalled[p.rank]
	}
	if err := message.Sign(env, u, &u.Sig); err != nil {
		env.Logf("core: signing Unwilling: %v", err)
		return
	}
	p.multicastAll(env, u)
}

// onUnwilling moves the view change past an unwilling candidate pair.
func (p *Process) onUnwilling(env runtime.Env, from types.NodeID, u *message.Unwilling) {
	if !p.scr() || u.From != from {
		return
	}
	if !p.installing || u.View != p.view {
		return
	}
	pc, ps, paired := p.candidate(p.topo.CandidateForView(u.View))
	if !paired || (from != pc && from != ps) {
		return
	}
	if p.unwillingSeen[u.View] {
		return
	}
	if err := u.VerifySig(env); err != nil {
		env.Logf("core: bad Unwilling from %v: %v", from, err)
		return
	}
	if u.FailSig == nil {
		return
	}
	if err := u.FailSig.Verify(env, pc, ps); err != nil {
		env.Logf("core: Unwilling without valid fail-signal: %v", err)
		return
	}
	p.unwillingSeen[u.View] = true
	// "Any process that receives Unwilling(v) echoes it back to both pc
	// and p'c and multicasts a ViewChange(v+1) message" — our BackLog
	// plays the view-change vote role.
	if p.id != pc && p.id != ps {
		p.send(env, pc, u)
		p.send(env, ps, u)
	}
	p.beginInstall(env, u.FailSig)
}

// --- pair recovery (signal-on-crash and recovery semantics) ---

// scrStartRecovery begins probing the counterpart after a (possibly
// false) timing suspicion took the pair down.
func (p *Process) scrStartRecovery(env runtime.Env) {
	if !p.scr() || p.pair == nil || p.cfg.RecoveryInterval <= 0 {
		return
	}
	if p.pair.Status() != fsp.Down {
		return
	}
	if p.beatTimer != nil {
		p.beatTimer.Stop()
	}
	p.beatTimer = env.SetTimer(p.cfg.RecoveryInterval, func() { p.beatTick(env) })
}

func (p *Process) beatTick(env runtime.Env) {
	p.beatTimer = nil
	if p.pair == nil || p.pair.Status() != fsp.Down {
		return
	}
	p.sendBeat(env, p.pair.Epoch()+1)
	p.scrStartRecovery(env) // keep probing until recovered or permanent
}

// sendBeat transmits a recovery probe carrying our fresh pre-signature for
// the target epoch (created once and memoised so retransmissions match).
func (p *Process) sendBeat(env runtime.Env, epoch uint64) {
	presig, ok := p.myBeatPresig[epoch]
	if !ok {
		var err error
		presig, err = fsp.PresignFor(env, types.Rank(p.pairIdx), epoch, p.id)
		if err != nil {
			env.Logf("core: pre-signing fail-signal for epoch %d: %v", epoch, err)
			return
		}
		p.myBeatPresig[epoch] = presig
	}
	beat := &message.PairBeat{From: p.id, Epoch: epoch, BeatSeq: p.beatSeq, FailSigSig: presig}
	p.beatSeq++
	if err := message.Sign(env, beat, &beat.Sig); err != nil {
		env.Logf("core: signing PairBeat: %v", err)
		return
	}
	p.send(env, p.pair.Counterpart(), beat)
}

// onPairBeat handles the counterpart's recovery probe: mutual timely beats
// carrying fresh epoch-(e+1) pre-signatures restart the pair.
func (p *Process) onPairBeat(env runtime.Env, from types.NodeID, b *message.PairBeat) {
	if !p.scr() || p.pair == nil || from != p.pair.Counterpart() {
		return
	}
	if p.pair.Status() == fsp.Up {
		// Already recovered into b.Epoch: the counterpart may have missed
		// our earlier probe (it was sent while the link was bad); answer
		// idempotently so it can recover too.
		if b.Epoch == p.pair.Epoch() && b.Epoch > 0 {
			if err := b.VerifySig(env); err == nil {
				p.sendBeat(env, b.Epoch)
			}
		}
		return
	}
	if p.pair.Status() != fsp.Down {
		return
	}
	epoch := p.pair.Epoch() + 1
	if b.Epoch != epoch {
		return
	}
	if err := b.VerifySig(env); err != nil {
		env.Logf("core: bad PairBeat: %v", err)
		return
	}
	// The beat carries the counterpart's pre-signature for the new epoch;
	// verify it against the canonical body before trusting it.
	body := message.FailSignalBody(types.Rank(p.pairIdx), epoch, from)
	if err := message.VerifySingle(env, from, body, b.FailSigSig); err != nil {
		env.Logf("core: PairBeat carries bad pre-signature: %v", err)
		return
	}
	// Reciprocate so the counterpart can recover too.
	p.sendBeat(env, epoch)
	if p.pair.Recover(epoch, b.FailSigSig) {
		p.pairEpochs[types.Rank(p.pairIdx)] = epoch
		// Pre-signatures for epochs below the recovered one can never be
		// sent again (beats for them would be rejected as stale); the
		// current epoch's stays memoised for idempotent re-answers.
		for e := range p.myBeatPresig {
			if e < epoch {
				delete(p.myBeatPresig, e)
			}
		}
		if p.cfg.OnPairRecovered != nil {
			p.cfg.OnPairRecovered(InstallEvent{Node: p.id, Rank: types.Rank(p.pairIdx), At: env.Now()})
		}
		// Resume duties if we are (still) the acting coordinator pair.
		p.resumeProposing(env)
		if p.isShadowNow() {
			p.armShadowExpectations(env)
		}
	}
}
