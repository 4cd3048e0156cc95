// Package node owns one decision: how one physical node of a deployment
// is assembled. From a Spec it builds the node's order processes (one per
// ordering group, each over its rotated topology and holding its pair
// counterpart's pre-signed fail-signal), opens the node's durable stores,
// derives its transport options, binds its TCP endpoint and answers its
// readiness check. When the spec carries replicas or names a reply-to
// client set it also wires what happens at a commit — once, for all four
// protocols, on the order process's own event loop: the process's replica
// executes the commit, and the process answers every committed entry of
// those clients with a signed Reply sent through its own Env. The
// in-process harness (and through it the public
// sof.Cluster) and the sofnode binary both assemble their nodes here, so
// what the benchmark measures is what the binary ships; a client endpoint
// (a Self outside the topology — sofclient's, the harness clients') is
// assembled here too and hosts internal/client instead of order processes.
package node
