// Package fsp implements the signal-on-crash (fail-signal) process-pair
// mechanism of Section 3 of the paper.
//
// Two Byzantine-prone processes p and p' are paired. Each mirrors to its
// counterpart every message it exchanges over the asynchronous network,
// checks the counterpart's outputs in the value and time domains, endorses
// correct outputs by double-signing, and — on detecting a failure —
// double-signs the fail-signal message pre-signed by the counterpart at
// initialisation and broadcasts it. The resulting abstract process either
// emits verifiably endorsed, correct outputs or crashes after signalling
// (properties SC1-SC3).
//
// This package provides the mechanism (fail-signal state machine, the
// deadline list of expectations under the pair's one timer, mirroring);
// the value-domain checks themselves are protocol knowledge and live with
// the protocols, which call Fail when a check fires. Time-domain
// expectations are identified by a typed Key —
// the four counterpart outputs the protocols await are enumerated here so
// that registering and discharging one costs no allocation and a missed
// one can still be named in the fail-signal's reason.
package fsp
