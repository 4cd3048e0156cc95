// Package session implements per-peer sequenced, HMAC-authenticated,
// resumable sessions over the tcpnet framed transport ("frame v2").
//
// Every TCP link runs through it. Bare length-prefixed frames would
// believe any 4-byte hello as a peer identity and abandon in-flight
// frames when a connection dies, leaving only the protocol signatures
// inside messages to authenticate content. This package closes both gaps
// beneath the protocol layer, in the spirit of the
// authenticated point-to-point channels BFT-style systems assume
// (Castro-Liskov session MACs):
//
//   - every data frame carries a version byte, a per-direction sequence
//     number and an HMAC-SHA256 trailer keyed from the trusted dealer's
//     link keys (crypto.LinkKeys), so a frame that was not produced by
//     the claimed sender for this direction is rejected before it
//     reaches protocol code;
//   - the bare hello is replaced by an authenticated hello/ack exchange:
//     the dialler proves it owns the direction key, and the acceptor
//     answers with the highest sequence number it has delivered;
//   - each sender keeps a bounded retransmission ring of sealed frames
//     and, on reconnect, replays exactly the gap the ack reveals, so a
//     dropped connection loses nothing as long as the gap fits the ring.
//
// The split of one session into a Sender (owned by the single sender
// goroutine of a tcpnet peer) and a Receiver (shared by the acceptor's
// connection readers, internally locked) mirrors how tcpnet uses one
// unidirectional TCP connection per direction.
//
// Wire layout, carried inside tcpnet's length-prefixed frame:
//
//	data:  ver(1)=2 | kind(1)=1 | epoch(8) | seq(8) | body | mac(32)
//	hello: ver(1)=2 | kind(1)=2 | from(4) | to(4) | epoch(8) | mac(32)
//	ack:   ver(1)=2 | kind(1)=3 | from(4) | to(4) | epoch(8) |
//	       lastDelivered(8) | mac(32)
//
// The MAC covers everything before it; data and hello MACs are keyed
// with the sender's direction key K(from->to), the ack with the
// acceptor's K(to->from). Sequence numbers start at 1 and never repeat
// within a sender incarnation; the epoch (the sender's start time, so
// incarnations are monotonically ordered) scopes them, letting a
// restarted process supersede its predecessor's delivery watermark
// while replayed hellos or frames from superseded incarnations are
// rejected as stale. Within one epoch, replayed frames are dropped as
// duplicates by the receiver's in-order delivery check.
//
// With Config.Journal (implemented by wal/sessionlog over the write-
// ahead log) the session state is durable: Seal journals every sealed
// frame, HandleAck the acknowledgement watermark, Open/VerifyHello the
// delivery watermark and epoch supersessions. A new Sender or Receiver
// then *recovers* its predecessor's state instead of starting fresh —
// same epoch, continued sequence numbers, the unacknowledged frame
// window reloaded into the retransmission ring — so a restarted process
// resumes its sessions where its dead incarnation stopped and replays
// exactly the frames that incarnation had sealed but never delivered.
// Journal writes are buffered and group-committed off the hot path; the
// crash-loss window is the journal's sync interval.
package session
