package core

import (
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/types"
)

// Tap is an interception seam on a process's outbound traffic, used by the
// adversary harness to turn one node Byzantine without forking the protocol
// logic. Every transmission the process makes — send, multicast fan-out and
// the fail-signal broadcast — is offered to the tap one destination at a
// time; whatever the tap returns is what actually goes on the wire.
//
// Returning nil drops the message, a single-element slice with the original
// passes it through, a mutated copy forges it (the tap runs inside the
// process's reactor, so signing mutated copies with env is exactly the power
// a corrupted process has: its own key, nobody else's), and multiple
// elements duplicate. Because the tap is consulted per destination it can
// equivocate — hand different payloads to different peers for the same
// logical multicast.
//
// Self-deliveries go through the tap too (the process is in its own
// multicast group); taps that want their host to stay internally consistent
// should pass those through unchanged.
type Tap interface {
	Outbound(env runtime.Env, to types.NodeID, m message.Message) []message.Message
}

// emit is the single low-level transmission point under the tap. With no
// tap installed it degenerates to a plain send.
func (p *Process) emit(env runtime.Env, to types.NodeID, m message.Message) {
	if p.cfg.Tap == nil {
		env.Send(to, m)
		return
	}
	for _, out := range p.cfg.Tap.Outbound(env, to, m) {
		if out != nil {
			env.Send(to, out)
		}
	}
}

// emitTo fans a multicast to the processes in to through the tap per
// destination; without a tap it keeps the encode-once Multicast fast path.
func (p *Process) emitTo(env runtime.Env, to []types.NodeID, m message.Message) {
	if p.cfg.Tap == nil {
		env.Multicast(to, m)
		return
	}
	for _, id := range to {
		p.emit(env, id, m)
	}
}
