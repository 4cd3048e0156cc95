// Package message defines every wire message of the four order protocols
// (SC, SCR, BFT, CT) together with their canonical binary encodings and
// signature helpers.
//
// Encoding convention: each message has a signable *body* (its type tag and
// fields) followed by its *tail* — its signature(s) and whatever else the
// signature does not cover. Double-signed messages follow the paper's
// Section 3 definition — "the second process considers the signature of
// the first as a part of the contents it signs for" — so
// Sig1 = Sign(D(body)) and Sig2 = Sign(D(body || Sig1)).
//
// That convention is stated once per kind. The kind table (kinds, in
// message.go) maps each Type tag to its name and constructor; a message
// type contributes its struct, one layout method that lists the body
// fields, calls endBody and lists the tail, and its verify rule. A coder
// walks the layout in either direction, and one driver (enc's methods and
// Decode) owns memoization, so Marshal, SignedBody and Decode are not
// per-type code and cannot disagree. Adding a message type is one Type
// constant, one table row, one struct with its layout, and one sample in
// the tests.
//
// Decoded messages alias the buffer they were decoded from; buffers must
// not be reused. Messages are treated as immutable after construction.
//
// Because messages are immutable, every message memoizes its canonical
// encodings: Marshal and SignedBody compute their bytes once and cache them
// on the struct. Because the body is a prefix of the wire encoding by
// construction, and every layout decodes canonically (re-encoding the
// decoded fields yields the input, which FuzzDecode pins for every kind),
// Decode primes both caches with the received bytes: relaying a decoded
// message never re-encodes it, and verifying one never rebuilds its body.
// The runtime confines any one Message value to a single goroutine at a
// time (a node's event loop, or the single-threaded simulator), so the
// caches need no synchronisation.
//
// A message costs at most one heap object in each direction. Built, it is
// signed through Sign (Countersign, Endorse): laid out once, signed in the
// signer's scratch, and copied once into the buffer that is its wire
// encoding, its body and its signature field — the shape a decoded message
// has. A signer that owns an event loop (the runtime Envs) offers Arenas,
// and the copy is carved from the 8 KB chunk of an Arena kept for that
// kind and signatory, so a signed message costs a share of a chunk; a bare
// crypto.Identity offers none, and the copy is an object of its own.
// SignSingle and SignSecond compute the same signatures for a caller that
// assigns the field by hand. Received, it is decoded by the engine's
// Decoder, which carves Requests and Acks out of typed Slabs; Decode is the
// same walk with every struct on the heap. An OrderBatch is one object
// either way, its entries inline (NewOrderBatch builds the same block).
// Slabs and Arenas follow one rule: nothing handed out is rewritten, one
// holds things whose owner keeps or drops them together, and the
// collector frees it with the last of them.
package message
