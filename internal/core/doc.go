// Package core implements the paper's primary contribution: the SC order
// protocol of Section 4 — a coordinator-based Byzantine fault-tolerant
// total-order protocol in which the coordinator is an abstract
// signal-on-crash process built from a pair of mutually-checking processes
// (internal/fsp). SCR, its recovery extension, and CT, the paper's
// crash-tolerant baseline, run on the same Process: CT is SC on a topology
// with no pairs (n = 2f+1), so its coordinator p1 is never replaced. It
// also exports the request pool that the BFT baseline reuses.
package core
