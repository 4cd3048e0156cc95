// Package crypto provides the signature suites, key management and modelled
// cost tables used by the order protocols.
//
// The paper (Section 5) evaluates three combinations of message digest and
// signature scheme: MD5 with RSA for key sizes 1024 and 1536, and SHA1 with
// DSA for key size 1024. This package implements all three with the
// standard library, plus an HMAC-SHA256 suite (symmetric dealer-trust
// MACs: the cheap default of sofnode, sof.Config and bench/), a no-op
// suite (the CT baseline uses no cryptography), and a modelled suite
// family used by the discrete-event simulator, whose operations are cheap
// to execute but carry calibrated 2006-era cost constants.
//
// A trusted dealer initialises the system with keys (Assumption 2); the
// Dealer type plays that role.
package crypto
