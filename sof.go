// Package sof is the public API of the Signal-On-Fail total-order library,
// a from-scratch Go reproduction of Inayat & Ezhilchelvan, "A Performance
// Study on the Signal-On-Fail Approach to Imposing Total Order in the
// Streets of Byzantium" (Newcastle CS-TR-967 / DSN 2006).
//
// The library provides four coordinator-based total-order protocols —
// SC (the paper's signal-on-crash protocol), SCR (its recovery extension),
// BFT (the Castro-Liskov comparator) and CT (the crash-tolerant strawman)
// — over three interchangeable substrates: a real-time goroutine runtime
// with real cryptography, a real TCP runtime (Config{Transport: TCP})
// whose processes are actual socket endpoints, and a virtual-time
// discrete-event simulator with calibrated 2006-era cost models that
// regenerates the paper's figures.
//
// Quick start:
//
//	cluster, err := sof.NewCluster(sof.Config{Protocol: sof.SC, F: 2})
//	...
//	cluster.Start()
//	defer cluster.Stop()
//	id, _ := cluster.Submit([]byte("my request"))
//	cluster.AwaitCommit(id, 5*time.Second)
package sof

import (
	"fmt"
	"net/http"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/harness"
	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/replica"
	"github.com/sof-repro/sof/internal/shard"
	"github.com/sof-repro/sof/internal/stats"
	"github.com/sof-repro/sof/internal/types"
)

// Protocol selects an order protocol.
type Protocol = types.Protocol

// The four protocols of the performance study.
const (
	// SC is the signal-on-crash protocol (assumption set 3(a), n = 3f+1).
	SC = types.SC
	// SCR is the signal-on-crash-and-recovery extension (3(b), n = 3f+2).
	SCR = types.SCR
	// BFT is the Castro-Liskov baseline (n = 3f+1).
	BFT = types.BFT
	// CT is the crash-tolerant baseline (n = 2f+1, no cryptography).
	CT = types.CT
)

// Suite names a signature suite.
type Suite = crypto.SuiteName

// The study's cryptographic configurations plus the auxiliary suites.
const (
	MD5RSA1024  = crypto.MD5RSA1024
	MD5RSA1536  = crypto.MD5RSA1536
	SHA1DSA1024 = crypto.SHA1DSA1024
	HMACSHA256  = crypto.HMACSHA256
	NoSuite     = crypto.NoneSuite
)

// Transport selects the live substrate's message-passing medium.
type Transport = types.Transport

// The live transports.
const (
	// InProcess passes messages between goroutines in one OS process,
	// optionally shaped by simulated LAN delays. It is the default.
	InProcess = types.TransportInProcess
	// TCP runs every order process as a real TCP endpoint on loopback:
	// length-prefixed frames, per-peer send queues with bounded
	// backpressure, reconnect with jitter, and writev batch coalescing.
	// The outbound path reuses each message's cached wire encoding, so
	// n-way fan-out costs one Marshal, like the in-process runtimes.
	TCP = types.TransportTCP
)

// AdversaryKind selects an adversarial process twin for fault-injection
// experiments: the named node keeps running the honest protocol code but
// its outbound traffic is intercepted and corrupted the way a compromised
// process with its own signing key could corrupt it.
type AdversaryKind = harness.AdversaryKind

// The adversarial twins (see Config.Adversaries).
const (
	// EquivocatingPrimary proposes conflicting batches for the same
	// sequence number to different peers.
	EquivocatingPrimary = harness.AdversaryEquivocatingPrimary
	// SignalSuppressor endorses honestly but never emits a fail-signal.
	SignalSuppressor = harness.AdversarySignalSuppressor
	// StaleReplayer re-sends stale copies of its own earlier traffic
	// alongside live messages, across restarts too.
	StaleReplayer = harness.AdversaryStaleReplayer
	// CatchUpLiar answers catch-up requests with claims inflated beyond
	// its evidence.
	CatchUpLiar = harness.AdversaryCatchUpLiar
)

// IngressConfig tunes the client-admission layer: per-client rate
// quotas with optional lockout, bounded per-client pool occupancy, and
// the brownout controller that sheds over-share clients when the
// ordering backlog crosses its high watermark. The zero value disables
// the layer entirely; Enabled with everything else zero applies the
// documented defaults.
type IngressConfig = ingress.Config

// ReqID identifies a submitted request.
type ReqID = message.ReqID

// NodeID identifies an order process.
type NodeID = types.NodeID

// LatencySummary is a latency sample summary.
type LatencySummary = stats.Summary

// Config configures a cluster. The zero value plus a Protocol is usable:
// f = 2, HMAC-SHA256 suite, 100 ms batching interval, 1 KB batches.
type Config struct {
	// Protocol selects SC, SCR, BFT or CT.
	Protocol Protocol
	// F is the fault-tolerance parameter (default 2, the paper's main
	// configuration).
	F int
	// Suite selects the signature suite (default HMAC-SHA256 for speed;
	// use MD5RSA1024 etc. for the paper's configurations). The default is
	// dealer-trust symmetric keying: every process the dealer initialised
	// holds every MAC secret, so it authenticates messages against
	// outsiders but cannot pin a forged signature on a Byzantine order
	// process — choose an RSA or DSA suite where that attribution matters.
	Suite Suite
	// BatchInterval is the paper's batching-interval (default 100 ms).
	BatchInterval time.Duration
	// BatchBytes is the paper's batch_size (default 1024).
	BatchBytes int
	// Delta is the intra-pair differential delay estimate (default 5 s).
	Delta time.Duration
	// MaxInflightBatches (SC, SCR and CT) caps how many proposed-but-
	// uncommitted batches the primary keeps outstanding. Values <= 1 (the
	// default) preserve the paper's strictly interval-paced proposer: one
	// batch per BatchInterval, which bounds throughput at roughly
	// entries-per-batch / BatchInterval regardless of offered load. Values
	// >= 2 enable the pipelined proposal path: a batch closes on the
	// arrival that fills it — when another request like it would no longer
	// fit BatchBytes (the interval timer degrades to a latency backstop for
	// partial batches), and commits free window slots that are refilled
	// immediately. A pipelined cluster also keeps the ordering critical
	// path digest-only: acks carry just the subject digest instead of
	// embedding the full endorsed batch, and a process that misses a
	// subject or a request payload fetches it from a peer off the
	// critical path.
	MaxInflightBatches int
	// Simulated runs the cluster on the virtual-time simulator instead of
	// real goroutines; RunFor then advances virtual time.
	Simulated bool
	// Transport selects the live substrate's medium: InProcess (the zero
	// value) or TCP. Incompatible with Simulated (the simulator has its
	// own virtual substrate). TCP speaks one wire, frame v2: the trusted
	// dealer issues link keys, connection hellos are HMAC-authenticated
	// instead of claimed, and every frame carries a per-direction
	// sequence number plus an HMAC-SHA256 trailer, so a frame not
	// produced by the claimed sender is rejected before it reaches
	// protocol code. The sessions resume: each sender keeps a bounded
	// retransmission ring and, after a reconnect, replays exactly the
	// frames the peer had not delivered, so a dropped connection loses
	// nothing in flight.
	Transport Transport
	// SessionRingLen bounds each sender's retransmission ring, in frames
	// (0 = the session default, 1024). The ring is the transport's memory
	// bound per peer: frames evicted from a full ring — e.g. the backlog
	// accumulated for a long-dead peer — can never be replayed, and a
	// restarted peer then recovers through the protocol-level checkpoint
	// catch-up instead (Durable). Requires Transport: TCP.
	SessionRingLen int
	// Durable persists per-node state under DataDir in segmented,
	// CRC-checked write-ahead logs, making the order processes' state
	// survive process crashes: their protocol checkpoints
	// (CheckpointInterval) and — on TCP — each node's
	// transport-session state, so a *restarted* process keeps its
	// session epoch and replays exactly the frames its dead incarnation
	// had sealed but not delivered. Writes are group-committed on the
	// BatchInterval: the hot path never waits on the disk, and a crash
	// loses at most one batching interval of unsynced records. The
	// measurement recorder keeps nothing on disk: AwaitCommit and the
	// commit stream cover this Cluster's commits only. So that a cluster
	// reopened on the same DataDir never reuses a request ID — the order
	// processes remember the old ones, and the client's session journal
	// replays its undelivered ones — the built-in client draws IDs from
	// the cluster's start time in nanoseconds (from 0 without Durable).
	// On TCP the session link master is kept in
	// <DataDir>/link-master (mode 0600), so replayed frames still verify.
	// Requires DataDir and a live cluster (Simulated: false).
	Durable bool
	// DataDir is the root directory for durable state; it is created if
	// missing. Reusing a DataDir resumes the previous incarnation's
	// state; distinct deployments need distinct directories. Requires
	// Durable.
	DataDir string
	// CheckpointInterval tunes the durable protocol checkpoints SC, SCR
	// and CT order processes write under Durable: a process snapshots its
	// view, pair epochs, committed-sequence watermark and committed-order
	// digest every CheckpointInterval delivered sequence numbers (0 = the
	// default, 64), and a *restarted* process restores the snapshot,
	// announces its watermark and catches up on the commits it missed
	// from its peers (CatchUp) before resuming ordering — protocol-level
	// recovery that works even after peers' bounded retransmission rings
	// have pruned the frames it missed. Durable checkpoint watermarks are
	// gossiped, and every process prunes committed-order history below
	// the cluster-wide minimum instead of retaining it forever. Negative
	// disables protocol checkpoints (transport-only durability). Requires
	// Durable.
	CheckpointInterval int
	// NetShaping (TCP transport only) imposes the simulated network
	// fabric's link model — per-link propagation, jitter and bandwidth
	// delay, plus any cuts and isolations injected through the harness
	// fabric — on the real TCP sends, so WAN-profile and partition
	// experiments run on the real socket substrate.
	NetShaping bool
	// CommitRetention bounds how many commit events the measurement
	// recorder retains in memory (0 = unlimited), and how many execution
	// results each replica keeps for Result. Long-running clusters should
	// set it (a few thousand is ample: replicas execute each commit as it
	// happens, so the ring serves only the recorder's own readers); a
	// reader whose cursor falls below the ring is told how many events it
	// missed. Values too small to hold a few commit waves (one event per
	// process per batch) are raised to that floor. AwaitCommit answers
	// from the recorder's committed-request index in O(1), and live it
	// sleeps on a commit signal instead of polling. The index keeps a
	// request while the ring keeps the event that first committed it, so
	// AwaitCommit on a request committed at least CommitRetention commit
	// events earlier times out rather than answering from history.
	CommitRetention int
	// Adversaries installs adversarial twins on the named order processes
	// (SC/SCR only): each node runs the honest protocol but its outbound
	// traffic is corrupted per its AdversaryKind. Fault-injection and
	// robustness testing only — an adversarial cluster intentionally
	// misbehaves.
	Adversaries map[NodeID]AdversaryKind
	// Groups shards the cluster into that many independent ordering
	// groups over the same physical nodes (default 1: today's
	// single-group cluster, bit-for-bit). Submit routes each request to
	// a group by its key (the KV key for EncodeKV payloads, the whole
	// payload otherwise) through a deterministic rendezvous hash, so the
	// same key always reaches the same group across processes and
	// restarts. Each group is a complete SC/SCR deployment — its own
	// coordinator pair (rotated onto different physical nodes per
	// group), recorder, WAL checkpoint directory
	// (<DataDir>/node-<id>/g<idx>/) and replica partition — multiplexed
	// over one TCP transport and session per node. Requests are totally ordered
	// within their group only; there is no cross-group order, and
	// multi-key submissions spanning two groups are rejected with a
	// *CrossGroupError (SubmitMulti). Requires Transport TCP, a live
	// cluster and Protocol SC or SCR; capped at MaxGroups.
	Groups int
	// Ingress enables client admission control on the order processes
	// (SC, SCR and CT): per-client rate limiting with optional lockout, a
	// per-client pending bound, and brownout shedding of over-share
	// clients under ordering backlog.
	// Refused clients receive a signed Rejected reply naming the cause
	// and a retry hint. The zero value keeps today's unconditional
	// admission path bit-for-bit.
	Ingress IngressConfig
	// ClientTLS wraps every TCP connection — client submissions and peer
	// links alike — in TLS 1.3 with a deterministic development identity
	// derived from Seed (server authentication; both sides of a link
	// derive the same self-signed root from the shared secret, see
	// tcpnet.DevTLS). The authenticated session frames travel inside it.
	// Requires Transport: TCP. Production deployments would supply real
	// certificates through the tcpnet options instead.
	ClientTLS bool
	// Seed seeds simulated network jitter.
	Seed int64
	// StateMachine, when non-nil, is instantiated once per order process
	// (per group when sharded) and applied to that process's committed
	// sequence on its own event loop as it commits (use NewKVStore,
	// NewCounter, ...).
	StateMachine func() StateMachine
}

// StateMachine is a deterministic replicated service.
type StateMachine = replica.StateMachine

// NewKVStore returns a replicated key-value store state machine.
func NewKVStore() StateMachine { return replica.NewKVStore() }

// NewCounter returns a counter state machine.
func NewCounter() StateMachine { return &replica.Counter{} }

// KV command helpers re-exported for the examples.
const (
	KVSet = replica.KVSet
	KVGet = replica.KVGet
	KVDel = replica.KVDel
)

// EncodeKV builds a KVStore command payload.
func EncodeKV(op byte, key, value string) []byte { return replica.EncodeKV(op, key, value) }

// MaxGroups caps Config.Groups (the group index must fit the one-byte
// wire prefix that demultiplexes groups on a shared connection).
const MaxGroups = shard.MaxGroups

// CrossGroupError reports a multi-key submission whose keys route to two
// different ordering groups — the library orders within a group only, so
// such requests are rejected rather than silently given no relative
// order. Returned (wrapped) by SubmitMulti; unwrap with errors.As.
type CrossGroupError = shard.CrossGroupError

// Cluster is a running order-protocol deployment with optional replicated
// state machines on top.
type Cluster struct {
	cfg    Config
	h      *harness.Cluster
	router shard.Map
}

// NewCluster builds a cluster (call Start to run it).
func NewCluster(cfg Config) (*Cluster, error) {
	h, err := harness.New(cfg.options())
	if err != nil {
		return nil, fmt.Errorf("sof: %w", err)
	}
	router, err := shard.New(h.GroupCount())
	if err != nil {
		h.Stop()
		return nil, fmt.Errorf("sof: %w", err)
	}
	return &Cluster{cfg: cfg, h: h, router: router}, nil
}

// options maps a Config onto the harness's Options, in this one place;
// every rule on how the settings combine is node.Mode.Check's, which
// harness.New applies as for every entry point. Pairs always mirror.
func (cfg Config) options() harness.Options {
	return harness.Options{
		Protocol:           cfg.Protocol,
		F:                  cfg.F,
		Suite:              cfg.Suite,
		BatchInterval:      cfg.BatchInterval,
		MaxBatchBytes:      cfg.BatchBytes,
		Delta:              cfg.Delta,
		MaxInflightBatches: cfg.MaxInflightBatches,
		Mirror:             true,
		Net:                netsim.LANDefaults(),
		Seed:               cfg.Seed,
		Live:               !cfg.Simulated,
		Transport:          cfg.Transport,
		SessionRingLen:     cfg.SessionRingLen,
		Durable:            cfg.Durable,
		DataDir:            cfg.DataDir,
		CheckpointInterval: cfg.CheckpointInterval,
		TCPShaping:         cfg.NetShaping,
		Adversaries:        cfg.Adversaries,
		Groups:             cfg.Groups,
		Ingress:            cfg.Ingress,
		TLS:                cfg.ClientTLS,
		KeepCommits:        true,
		CommitRetention:    cfg.CommitRetention,
		StateMachine:       cfg.StateMachine,
	}
}

// Groups returns the number of ordering groups (1 unless sharded).
func (c *Cluster) Groups() int { return c.h.GroupCount() }

// GroupOf returns the ordering group a payload routes to — by its KV key
// for EncodeKV payloads, by the whole payload otherwise.
func (c *Cluster) GroupOf(payload []byte) int {
	return c.router.GroupFor(shard.RoutingKey(payload))
}

// Start launches the cluster.
func (c *Cluster) Start() { c.h.Start() }

// Stop terminates a live cluster.
func (c *Cluster) Stop() { c.h.Stop() }

// RunFor advances the cluster: wall-clock sleep live, virtual time
// simulated.
func (c *Cluster) RunFor(d time.Duration) { c.h.RunFor(d) }

// Submit sends one request from the built-in client to every order
// process of the group its key routes to (group 0 always, unless the
// cluster is sharded).
func (c *Cluster) Submit(payload []byte) (ReqID, error) {
	return c.h.SubmitToGroup(0, c.GroupOf(payload), payload)
}

// SubmitMulti submits a set of payloads that form one logical multi-key
// operation: all of them must route to the same ordering group (the
// library imposes no cross-group order), otherwise nothing is submitted
// and the error unwraps to a *CrossGroupError naming the conflicting
// keys. On success the payloads are submitted to the shared group in
// argument order.
func (c *Cluster) SubmitMulti(payloads ...[]byte) ([]ReqID, error) {
	if len(payloads) == 0 {
		return nil, fmt.Errorf("sof: SubmitMulti needs at least one payload")
	}
	keys := make([][]byte, len(payloads))
	for i, p := range payloads {
		keys[i] = shard.RoutingKey(p)
	}
	group, err := c.router.GroupForKeys(keys...)
	if err != nil {
		return nil, fmt.Errorf("sof: %w", err)
	}
	ids := make([]ReqID, 0, len(payloads))
	for _, p := range payloads {
		id, err := c.h.SubmitToGroup(0, group, p)
		if err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// AwaitCommit waits (wall or virtual time) until the request is committed
// at some process of any group, through the harness's one commit wait.
func (c *Cluster) AwaitCommit(id ReqID, timeout time.Duration) error {
	if c.h.AwaitCommit(timeout, id) > 0 {
		return fmt.Errorf("sof: request %v not committed within %v", id, timeout)
	}
	return nil
}

// Result returns a request's execution result at one replica (requires a
// StateMachine). In a sharded cluster the node's per-group partitions are
// consulted in turn — a request has exactly one home group, so at most
// one holds the result.
func (c *Cluster) Result(node NodeID, id ReqID) ([]byte, bool) {
	for g := 0; g < c.Groups(); g++ {
		if rep := c.h.Replica(node, g); rep != nil {
			if res, ok := rep.Result(id); ok {
				return res, true
			}
		}
	}
	return nil, false
}

// ReplicaState reports one replica's execution progress — the highest
// applied sequence number (summed over group partitions in a sharded
// cluster, where each group runs its own sequence space), how many commit
// events await contiguous application, and how many results are retained
// — for tests and operational introspection. ok is false without a
// StateMachine.
func (c *Cluster) ReplicaState(node NodeID) (applied uint64, pending, results int, ok bool) {
	for g := 0; g < c.Groups(); g++ {
		rep := c.h.Replica(node, g)
		if rep == nil {
			continue
		}
		seq, _ := rep.Applied()
		applied += uint64(seq)
		pending += rep.PendingCount()
		results += rep.ResultCount()
		ok = true
	}
	return applied, pending, results, ok
}

// OrderState is a snapshot of one core order process's proposer gauges:
// the proposal counter and delivery watermark, the pipeline occupancy, and
// the batch fill/close statistics. See Config.MaxInflightBatches.
type OrderState = harness.OrderState

// OrderState reports one order process's proposer gauges (SC, SCR and
// CT; ok is false under BFT or for unknown nodes). In live mode the
// snapshot is taken on the process's own event loop, so it is consistent
// even against a running cluster.
func (c *Cluster) OrderState(node NodeID) (OrderState, bool) {
	return c.h.OrderStateOf(node)
}

// OrderStateGroup reports the proposer gauges of one node's order process
// in one ordering group (OrderStateGroup(node, 0) == OrderState(node)).
func (c *Cluster) OrderStateGroup(node NodeID, group int) (OrderState, bool) {
	return c.h.OrderStateOfGroup(node, group)
}

// Results returns the per-replica results for a request (f+1 identical
// results are what a real client would require). A request lives in
// exactly one group, so each node contributes at most one result.
func (c *Cluster) Results(id ReqID) map[NodeID][]byte {
	out := make(map[NodeID][]byte)
	for _, node := range c.Processes() {
		if res, ok := c.Result(node, id); ok {
			out[node] = res
		}
	}
	return out
}

// Processes returns the order-process IDs.
func (c *Cluster) Processes() []NodeID { return c.h.Topo.AllProcesses() }

// MetricFamily is one collected metric family: a named set of labeled
// samples (counter, gauge or histogram) from a node's registry.
type MetricFamily = obs.Family

// Metrics collects one node's live metrics: every layer's instruments
// (ordering watermark, view and fail-over counters, batch fill, session
// and peer-queue state, WAL fsync latency, replica progress), families
// sorted by name.
func (c *Cluster) Metrics(node NodeID) []MetricFamily {
	return c.h.RegistryOf(node).Collect()
}

// MetricsRegistry exposes node's live registry — obs.WriteText renders
// Prometheus text exposition, obs.NewMux serves /metrics, /healthz and
// /readyz over it.
func (c *Cluster) MetricsRegistry(node NodeID) *obs.Registry {
	return c.h.RegistryOf(node)
}

// Readiness returns node's readiness probe — nil error when every hosted
// ordering group has left restart catch-up and (on the TCP transport)
// the node holds live connections to a majority of the other order
// processes. Pair it with obs.ReadyHandler to serve /readyz.
func (c *Cluster) Readiness(node NodeID) func() error {
	return c.h.ReadinessOf(node)
}

// OpsHandler serves node's live ops surface — /metrics (Prometheus text
// exposition), /healthz (liveness) and /readyz (Readiness) — ready to
// mount on any HTTP server.
func (c *Cluster) OpsHandler(node NodeID) http.Handler {
	return obs.NewMux(c.h.RegistryOf(node), c.h.ReadinessOf(node))
}

// Latency summarises order latencies observed so far.
func (c *Cluster) Latency() LatencySummary { return c.h.Events.LatencySummary() }

// Harness exposes the underlying test/benchmark harness for advanced use
// (fault injection, topology inspection, event streams).
func (c *Cluster) Harness() *harness.Cluster { return c.h }

// InjectCoordinatorValueFault triggers the paper's Figure 6 fault: the
// acting primary misbehaves in the value domain, the shadow fail-signals,
// and a new coordinator is installed.
func (c *Cluster) InjectCoordinatorValueFault() error {
	return c.h.InjectCoordinatorValueFault()
}
