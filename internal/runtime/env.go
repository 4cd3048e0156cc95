package runtime

import (
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/types"
)

// Env is the execution environment handed to a process. Implementations
// charge modelled CPU costs for cryptographic operations in simulation;
// in the live runtime those operations simply take real time.
type Env interface {
	// ID returns the process's own identifier.
	ID() types.NodeID
	// Now returns the current (virtual or real) time, including CPU time
	// charged so far while handling the current event.
	Now() time.Time
	// Send transmits m to one destination. Messages are immutable once
	// sent; neither sender nor receivers may modify them.
	Send(to types.NodeID, m message.Message)
	// Multicast transmits m to every destination, marshalling once.
	Multicast(tos []types.NodeID, m message.Message)
	// SetTimer schedules fn to run in the process's event loop after d.
	SetTimer(d time.Duration, fn func()) Timer
	// Charge adds modelled CPU time to the current event (no-op live).
	Charge(d time.Duration)
	// Digest computes the suite digest of data (charged in simulation).
	// The result is the caller's to keep.
	Digest(data []byte) []byte
	// ScratchDigest is Digest into storage the environment owns, charged
	// alike: the result is valid only until the next ScratchDigest on this
	// Env. It is for a digest that is signed, verified or compared and
	// then dropped; the process's event loop is what serialises its use.
	ScratchDigest(data []byte) []byte
	// Sign signs a digest as this process (charged in simulation). The
	// result is the caller's to keep.
	Sign(digest []byte) (crypto.Signature, error)
	// ScratchSign is Sign into storage the environment owns, charged alike:
	// the result is valid only until the next ScratchSign on this Env. It is
	// for a signature that is copied into the message it belongs to
	// (message.Sign) and then dropped; it has its own storage, so signing a
	// ScratchDigest result is fine.
	ScratchSign(digest []byte) (crypto.Signature, error)
	// Verify checks a signature by signer (charged in simulation).
	Verify(signer types.NodeID, digest []byte, sig crypto.Signature) error
	// Logf emits a debug log line tagged with the process and time.
	Logf(format string, args ...any)
}

// Env must satisfy the message package's signing interfaces so protocol
// code can pass it directly to message verification helpers.
var _ message.SignerVerifier = (Env)(nil)

// Timer is a cancellable timer handle. A handle names one SetTimer call
// for good: Stop on it after that timer fired or was stopped reports
// false and touches no later timer, however the substrate recycles what
// is behind the handle.
type Timer interface {
	// Stop cancels the timer; it reports whether the callback was
	// prevented from running.
	Stop() bool
}

// Process is a deterministic protocol reactor.
type Process interface {
	// Init runs once when the cluster starts, before any delivery.
	Init(env Env)
	// Receive handles one delivered message.
	Receive(env Env, from types.NodeID, m message.Message)
}

// maxTime returns the later of two times.
func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
