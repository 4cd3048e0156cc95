// Package harness assembles whole clusters — order processes, clients,
// network, measurement — on any of the three substrates (virtual-time
// simulation, in-process real-time goroutines, or real TCP sockets via
// Options.Transport) and exposes the measurements the paper reports:
// order latency (batched -> first commit), throughput (requests committed
// per second at an order process), and fail-over latency (fail-signal
// issued -> Start tuples issued). Each node is assembled by internal/node
// from the spec Cluster.NodeSpec derives from Options — the same path
// cmd/sofnode takes — so the harness adds only what a cluster needs: the
// substrate, the dealer, clients, recorders and fault injection.
//
// The Recorder is the measurement sink: protocols report batch, commit,
// fail-signal and installation events through hooks, and consumers follow
// the commit stream with cursors (CommitsSince) so steady-state reads are
// O(new events). The experiments file packages the paper's Section 5
// experiments as reusable functions.
package harness
