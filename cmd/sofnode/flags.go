package main

import (
	"flag"
	"strings"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/node"
	"github.com/sof-repro/sof/internal/types"
)

// config is the parsed command line.
type config struct {
	id, f, groups                           int
	protocol, suite, secret, peers, clients string
	dataDir, metricsAddr                    string
	tls                                     bool
	// knobs are the node's ordering knobs, defaults applied.
	knobs core.Knobs
}

func parseFlags(args []string) config {
	// Pair mirroring has no flag: sofnode runs it. The other knobs
	// without a flag keep their defaults: 1 KB batches, SCR pair probes
	// every -delta, BFT's view-change timeout.
	c := config{knobs: core.Knobs{Mirror: true}}
	fs := flag.NewFlagSet("sofnode", flag.ExitOnError)
	fs.IntVar(&c.id, "id", 0, "this node's process ID (0-based)")
	fs.IntVar(&c.f, "f", 2, "fault-tolerance parameter")
	fs.StringVar(&c.protocol, "protocol", "sc", "protocol: sc, scr, bft or ct")
	fs.StringVar(&c.suite, "suite", string(crypto.HMACSHA256), "signature suite (the default is dealer-trust symmetric MACs: no non-repudiation between nodes sharing -secret; the RSA/DSA suites give it)")
	fs.StringVar(&c.secret, "secret", "streets-of-byzantium", "shared dealer secret")
	fs.StringVar(&c.peers, "peers", "", "comma-separated node addresses, index = node ID")
	fs.StringVar(&c.dataDir, "data-dir", "", "journal durable node state to this directory: protocol checkpoints (sc/scr/ct) and session state, so a restarted node restores its watermark, catches up on missed commits from its peers, and replays its dead incarnation's in-flight frames")
	fs.StringVar(&c.clients, "clients", "", "comma-separated client listen addresses (index = client number) whose committed requests this node answers with a signed Reply")
	fs.IntVar(&c.groups, "groups", 1, "independent ordering groups hosted on this node (sc/scr only; all nodes and clients must agree): each group is a complete ordering cluster with its own coordinator pair — rotated so group g's pair sits on different physical nodes — and its own WAL directory under -data-dir/g<i>, multiplexed over this node's one listener and session")
	fs.StringVar(&c.metricsAddr, "metrics-addr", "", "serve the ops surface on this address: /metrics (Prometheus text exposition), /healthz (liveness), /readyz (ready once catch-up is done and a majority of order processes are connected)")
	fs.BoolVar(&c.tls, "tls", false, "wrap every connection — peer and client — in TLS 1.3; both endpoints derive a matched DevTLS certificate from -secret, so all nodes and clients must agree")
	bindKnobs(fs, &c.knobs)
	_ = fs.Parse(args) // ExitOnError: a bad flag prints usage and exits
	c.knobs = c.knobs.WithDefaults()
	return c
}

// bindKnobs is sofnode's knob table: each flag sets the field of k it is
// bound to, and defaults to that knob's default.
func bindKnobs(fs *flag.FlagSet, k *core.Knobs) {
	d, in := k.WithDefaults(), &k.Ingress
	fs.DurationVar(&k.BatchInterval, "batch", d.BatchInterval, "batching interval")
	fs.DurationVar(&k.Delta, "delta", d.Delta, "pair differential delay estimate (under scr also the pair-probe period)")
	fs.IntVar(&k.CheckpointInterval, "ckpt-interval", 0, "delivered sequence numbers between protocol checkpoints (0 = default 64, negative disables; requires -data-dir)")
	fs.IntVar(&k.MaxInflightBatches, "inflight", 0, "proposal-window width (sc/scr/ct): <=1 keeps the paper's one-batch-per-interval proposer, >=2 enables pipelined size-triggered batch closes and digest-only acks (missing subjects/payloads are fetched off the critical path)")
	fs.BoolVar(&in.Enabled, "ingress", false, "client admission control (not under bft): per-client rate limit, lockout, pending bound and overload brownout; refused requests get a signed Rejected with a retry hint")
	fs.IntVar(&in.Rate, "ingress-rate", 0, "admitted requests per client per -ingress-period (0 = default 256, negative = unlimited)")
	fs.DurationVar(&in.RatePeriod, "ingress-period", 0, "rate-limiter period (0 = default 1s)")
	fs.IntVar(&in.LockoutThreshold, "ingress-lockout", 0, "lock a client out once its rejections within the lockout window reach this count (0 = no lockout)")
	fs.IntVar(&in.MaxClientPending, "ingress-pending", 0, "per-client bound on admitted-but-unordered requests in the pool (0 = unbounded)")
	fs.DurationVar(&in.EvictAfter, "ingress-evict", 0, "drop a pooled request that has gone this long without an ordering decision (0 = default 30s, negative disables)")
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
// registry, logger and event hooks.
func (c config) spec(proto types.Protocol, topo types.Topology, dealt *node.Dealt) node.Spec {
	replyTo := make(map[types.NodeID]bool)
	for id := range c.clientAddrs() {
		replyTo[id] = true
	}
	return node.Spec{
		Self:      types.NodeID(c.id),
		Protocol:  proto,
		Topo:      topo,
		Groups:    c.groups,
		Idents:    dealt.Idents,
		Knobs:     c.knobs,
		DataDir:   c.dataDir,
		Links:     dealt.Links,
		TLSServer: dealt.TLSServer,
		TLSClient: dealt.TLSClient,
		ReplyTo:   replyTo,
	}
}
