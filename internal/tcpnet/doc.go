// Package tcpnet is the TCP wire substrate: a production-grade transport
// that carries marshalled protocol messages between order processes (and
// clients) running as separate OS processes, the way the paper's LAN
// testbed ran separate machines.
//
// It is a pure byte transport — it knows nothing about protocol message
// types or the runtime layer. internal/runtime builds its TCP substrate
// (TCPNode, TCPCluster) on top of it; cmd/sofnode and cmd/sofclient reach
// it only through a TCPNode. A client endpoint is a Transport like any
// other: there is one dial path and one handshake.
//
// Wire format v1 (Options.Session == nil): on connect, the dialer sends a
// 4-byte big-endian NodeID hello; thereafter each message is a 4-byte
// big-endian length prefix followed by the marshalled message (a frame).
// Connections identify the sender by claim only; message-level signatures
// still authenticate content.
//
// Wire format v2 (Options.Session != nil): the same length-prefixed
// framing, but the bare hello becomes an HMAC-authenticated hello/ack
// handshake and every frame payload carries a version byte, a
// per-direction sequence number and an HMAC-SHA256 trailer (see
// internal/session). Sender identity is then cryptographically bound to
// the dealer's link keys, tampered frames are rejected before reaching
// protocol code, and — with Session.Resume — each sender's bounded
// retransmission ring replays the in-flight window after a reconnect
// instead of losing it. All endpoints of a deployment must agree on the
// setting.
//
// Performance model:
//
//   - Outbound fan-out is zero-copy: callers hand the transport the cached
//     wire encoding (message.Message.Marshal memoizes it) and the same
//     byte slice is enqueued to every destination. The transport never
//     copies or re-encodes a payload.
//   - Each peer has a dedicated sender goroutine behind a bounded queue.
//     A slow or dead peer therefore exerts backpressure only on its own
//     queue: once full, new frames for that peer are counted and dropped
//     (the asynchronous system model tolerates loss) while traffic to
//     other peers is unaffected and the caller never blocks.
//   - Senders coalesce queued frames and write them with a single writev
//     (net.Buffers) syscall — length prefixes and payloads gathered
//     together, up to Options.MaxBatch frames per call.
//   - Dead connections are redialled with capped exponential backoff plus
//     jitter, so a restarted peer is rejoined without a reconnect storm.
//   - Inbound connections are read straight into fixed 32 KB chunks and
//     each frame is handed out as a slice of its chunk — no copy and no
//     allocation per frame. Decoded messages alias the buffer they were
//     decoded from (see internal/message), so a chunk is never rewritten
//     once a byte of it is handed out, and it lives as long as the
//     longest-lived message decoded from it (see chunkReader).
package tcpnet
