// Package replica is the service execution layer above the order
// protocols: a deterministic state machine applied to the committed
// request sequence (the "s1..s(2f+1)" boxes of Figure 1). The order
// protocols guarantee every non-faulty replica sees the same sequence;
// this package turns that sequence into application state and results.
// Each replica executes where its order process commits — on that
// process's event loop, wired by internal/node — so its applied watermark
// is an on-loop value beside the process's own delivery watermark.
package replica
