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
// Wire format (frame v2): each message is a 4-byte big-endian length prefix
// followed by its payload (a frame); on connect the dialer and the
// acceptor run an HMAC-authenticated hello/ack handshake, and every frame
// payload carries a version byte, a per-direction sequence number and an
// HMAC-SHA256 trailer (see internal/session). Sender identity is
// cryptographically bound to the link keys, tampered frames are rejected
// before reaching protocol code, and each sender's bounded retransmission
// ring replays the in-flight window after a reconnect instead of losing
// it. Every endpoint internal/node builds holds the dealer's link keys; a
// Transport built without Options.Session holds a master drawn once per
// OS process, so it speaks the same wire but authenticates only
// Transports of its own process.
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
//     (net.Buffers) syscall — length prefixes, session headers, payloads
//     and MACs gathered together, up to Options.MaxBatch frames per call.
//   - Dead connections are redialled with capped exponential backoff plus
//     jitter, so a restarted peer is rejoined without a reconnect storm.
//     A connection is known dead when a write fails or when the peer
//     closes it: one goroutine per connection reads the dial side, where
//     the acceptor writes nothing after its hello-ack.
//   - Inbound connections are read straight into fixed 32 KB chunks and
//     each frame is handed out as a slice of its chunk — no copy and no
//     allocation per frame. Decoded messages alias the buffer they were
//     decoded from (see internal/message), so a chunk is never rewritten
//     once a byte of it is handed out, and it lives as long as the
//     longest-lived message decoded from it (see chunkReader).
package tcpnet
