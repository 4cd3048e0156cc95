// Package client is the system's one client: a runtime.Process that signs
// requests and multicasts them to every order process of its ordering
// group (clients "direct their requests to all nodes", Section 3) and —
// when its host expects replies — accepts a result once f+1 distinct
// order processes have vouched for it with a signed Reply, as in the
// Castro–Liskov comparator the paper measures against.
//
// It is hosted like any other process: the harness puts it where an order
// process would stand on the simulator, the in-process runtime and the TCP
// cluster, and cmd/sofclient hosts it on a runtime.TCPNode, so the
// transport's own peers carry its submissions (reconnect, resume replay
// and the sharded group prefix included) and the same reactor is tested on
// virtual time.
//
// One client identity owns one Client per ordering group. They share one
// atomic ClientSeq counter, which the host makes with NewSeq (its start
// rule keeps a later incarnation's IDs fresh): request IDs are drawn
// off-loop (NextID), submissions run on the group's event loop (Submit).
// With Config.Need zero the client is fire-and-forget — it tracks nothing
// and its Submit allocates the request's signed buffer and a share of the
// slab the request struct is carved from, nothing else. With Need = f+1
// every submission ends in exactly one outcome: accepted, shed (refused at
// admission with the retry budget spent), superseded by its own retry, or
// still pending when the host stops waiting. An accepted request is
// forgotten at once, so a long run that is accepted holds no history.
package client
