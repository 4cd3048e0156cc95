// Package node owns one decision: how one physical node of a deployment
// is assembled. From a Spec it builds the node's order processes (one per
// ordering group, each over its rotated topology and holding its pair
// counterpart's pre-signed fail-signal), opens the node's durable stores,
// derives its transport options and answers its readiness check. The
// in-process harness (and through it the public sof.Cluster) and the
// sofnode binary both assemble their nodes here, so what the benchmark
// measures is what the binary ships.
package node
