package main

import (
	"flag"
	"strings"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/node"
	"github.com/sof-repro/sof/internal/types"
)

// config is the parsed command line.
type config struct {
	id, f, groups, inflight, ckptInterval   int
	protocol, suite, secret, peers, clients string
	dataDir, metricsAddr                    string
	batch, delta                            time.Duration
	auth, resume, digestAcks, tls           bool
	ingress                                 ingress.Config
}

func parseFlags(args []string) config {
	var c config
	fs := flag.NewFlagSet("sofnode", flag.ExitOnError)
	fs.IntVar(&c.id, "id", 0, "this node's process ID (0-based)")
	fs.IntVar(&c.f, "f", 2, "fault-tolerance parameter")
	fs.StringVar(&c.protocol, "protocol", "sc", "protocol: sc, scr, bft or ct")
	fs.StringVar(&c.suite, "suite", string(crypto.HMACSHA256), "signature suite (the default is dealer-trust symmetric MACs: no non-repudiation between nodes sharing -secret; the RSA/DSA suites give it)")
	fs.StringVar(&c.secret, "secret", "streets-of-byzantium", "shared dealer secret")
	fs.StringVar(&c.peers, "peers", "", "comma-separated node addresses, index = node ID")
	fs.DurationVar(&c.batch, "batch", 100*time.Millisecond, "batching interval")
	fs.DurationVar(&c.delta, "delta", 5*time.Second, "pair differential delay estimate")
	fs.BoolVar(&c.auth, "auth", false, "authenticate frames: HMAC-sealed frame v2 with authenticated hellos (all nodes and clients must agree)")
	fs.BoolVar(&c.resume, "resume", false, "resume sessions across reconnects, replaying in-flight frames (implies -auth)")
	fs.StringVar(&c.dataDir, "data-dir", "", "journal durable node state to this directory: protocol checkpoints (sc/scr), and — with -auth — session state, so a restarted node restores its watermark, catches up on missed commits from its peers, and replays its dead incarnation's in-flight frames")
	fs.IntVar(&c.ckptInterval, "ckpt-interval", 0, "delivered sequence numbers between protocol checkpoints (0 = default 64, negative disables; requires -data-dir)")
	fs.IntVar(&c.inflight, "inflight", 1, "sc/scr proposal-window width: <=1 keeps the paper's one-batch-per-interval proposer, >=2 enables pipelined size-triggered batch closes")
	fs.BoolVar(&c.digestAcks, "digest-acks", false, "sc/scr digest-only ordering: acks carry subject digests only; missing subjects/payloads are fetched off the critical path")
	fs.StringVar(&c.clients, "clients", "", "comma-separated client listen addresses (index = client number) whose committed requests this node answers with a signed Reply")
	fs.IntVar(&c.groups, "groups", 1, "independent ordering groups hosted on this node (sc/scr only; all nodes and clients must agree): each group is a complete ordering cluster with its own coordinator pair — rotated so group g's pair sits on different physical nodes — and its own WAL directory under -data-dir/g<i>, multiplexed over this node's one listener and session")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve the ops surface on this address: /metrics (Prometheus text exposition), /healthz (liveness), /readyz (ready once catch-up is done and a majority of order processes are connected)")
	fs.BoolVar(&c.tls, "tls", false, "wrap every connection — peer and client — in TLS 1.3; both endpoints derive a matched DevTLS certificate from -secret, so all nodes and clients must agree")
	fs.BoolVar(&c.ingress.Enabled, "ingress", false, "client admission control (sc/scr only): per-client rate limit, lockout, pending bound, fair dequeue and overload brownout; refused requests get a signed Rejected with a retry hint")
	fs.IntVar(&c.ingress.Rate, "ingress-rate", 0, "admitted requests per client per -ingress-period (0 = default 256, negative = unlimited)")
	fs.DurationVar(&c.ingress.RatePeriod, "ingress-period", 0, "rate-limiter period (0 = default 1s)")
	fs.IntVar(&c.ingress.LockoutThreshold, "ingress-lockout", 0, "lock a client out once its rejections within the lockout window reach this count (0 = no lockout)")
	fs.IntVar(&c.ingress.MaxClientPending, "ingress-pending", 0, "per-client bound on admitted-but-unordered requests in the pool (0 = unbounded)")
	fs.DurationVar(&c.ingress.EvictAfter, "ingress-evict", 0, "drop a pooled request that has gone this long without an ordering decision (0 = default 30s, negative disables)")
	_ = fs.Parse(args) // ExitOnError: a bad flag prints usage and exits
	return c
}

// clientAddrs are the -clients listen addresses by client identity: where
// this node's transport reaches each client, and the reply-to set.
func (c config) clientAddrs() map[types.NodeID]string {
	addrs := make(map[types.NodeID]string)
	if c.clients != "" {
		for k, a := range strings.Split(c.clients, ",") {
			addrs[types.ClientID(k)] = strings.TrimSpace(a)
		}
	}
	return addrs
}

// spec maps the command line to this node's assembly spec; run adds the
// registry, logger and event hooks. The knobs sofnode has no flag for are
// fixed here: 1 KB batches, pair mirroring on, the dumb optimisation on
// (node applies it under SC only), SCR pair probes every -delta, BFT's
// default view-change timeout, the default session ring.
func (c config) spec(proto types.Protocol, topo types.Topology, dealt *node.Dealt) node.Spec {
	replyTo := make(map[types.NodeID]bool)
	for id := range c.clientAddrs() {
		replyTo[id] = true
	}
	return node.Spec{
		Self:               types.NodeID(c.id),
		Protocol:           proto,
		Topo:               topo,
		Groups:             c.groups,
		Idents:             dealt.Idents,
		BatchInterval:      c.batch,
		MaxBatchBytes:      1024,
		Delta:              c.delta,
		Mirror:             true,
		DumbOptimization:   true,
		RecoveryInterval:   c.delta,
		CheckpointInterval: c.ckptInterval,
		MaxInflightBatches: c.inflight,
		DigestOnlyAcks:     c.digestAcks,
		Ingress:            c.ingress,
		DataDir:            c.dataDir,
		Links:              dealt.Links,
		Resume:             c.resume,
		TLSServer:          dealt.TLSServer,
		TLSClient:          dealt.TLSClient,
		ReplyTo:            replyTo,
	}
}
