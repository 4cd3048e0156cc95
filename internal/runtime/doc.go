// Package runtime executes protocol processes on three substrates: a
// virtual-time discrete-event simulator (SimCluster) that regenerates the
// paper's figures with calibrated cost models, a real-time goroutine
// runtime (LiveCluster) that runs the identical protocol code on actual
// clocks and cryptography, and a TCP runtime (TCPNode, TCPCluster) that
// runs it over real sockets via internal/tcpnet — either a whole cluster
// on loopback or one process per OS process, the way the paper's LAN
// testbed ran separate machines.
//
// Protocol code is written as single-threaded reactors against the Env
// interface; all concurrency lives here. A process's Init, Receive and
// timer callbacks are never invoked concurrently with each other.
//
// All three substrates share the encode-once contract: Send and Multicast
// consume the message's memoized wire encoding, so an n-way fan-out costs
// a single Marshal, and self-addressed messages are delivered decoded
// without touching the wire.
//
// The two real-time substrates are a single code path: the shared
// delivery engine (engine.go) owns the event queue, its draining
// goroutine, the encode-once fan-out, the decoded self-loopback, the
// deadline queue behind SetTimer (timers.go: one heap and one armed
// runtime timer per process, dropped with the loop so Stop cancels every
// pending timer) and the crypto-backed Env surface, digest scratch
// included. LiveCluster nodes and TCP endpoints
// embed it and supply only their delivery medium — fabric-delayed
// in-process handoff vs. tcpnet peer queues — so transport features like
// the authenticated session layer plug in beneath the engine without the
// substrates diverging.
package runtime
