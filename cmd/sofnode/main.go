// Command sofnode runs one order process of a signal-on-fail cluster over
// real TCP, so a deployment can span OS processes (or machines) the way
// the paper's LAN testbed did.
//
// All nodes must share -secret: a deterministic dealer derives identical
// key material on every node, standing in for the paper's trusted dealer
// (demo-grade key distribution; see internal/crypto.DRBG).
//
// With -auth every connection hello and every frame is HMAC-
// authenticated (frame v2); with -resume reconnects additionally replay
// in-flight frames from each sender's retransmission ring instead of
// dropping them. All nodes and clients of a deployment must agree on
// these flags.
//
// With -metrics-addr the node serves its live ops surface: /metrics in
// the Prometheus text exposition format (commit watermark, view and
// fail-over counters, batch fill, per-peer transport/session counters,
// WAL fsync latency), /healthz (liveness) and /readyz (readiness —
// 503 while any hosted group is still catching up after a restart or
// while the node is connected to fewer than a majority of the other
// order processes). On shutdown the node logs every registry counter in
// one sorted block.
//
// With -data-dir the node journals durable state to write-ahead logs
// under that directory, group-committed on the batching interval. For
// sc/scr the node checkpoints its protocol state (view, pair epochs,
// committed watermark, committed-order digest) every -ckpt-interval
// delivered sequence numbers; a *restarted* node (same -id, same
// -data-dir) restores the checkpoint, announces its watermark and
// catches up on the commits it missed from its peers before resuming
// ordering — even when the peers' bounded retransmission rings have long
// pruned the frames it missed. With -auth the node's session state —
// epochs, delivery watermarks and the sealed-but-unacknowledged frame
// window — is journalled too, and with -resume a restarted node replays
// the frames the dead incarnation had sealed but never delivered. A
// crash loses at most one batching interval of records.
//
// With -clients (comma-separated client listen addresses, index = client
// number) every hosted order process answers each committed entry of
// those clients with a signed Reply (internal/node wires the emission,
// through the process's own environment); `sofclient -listen` accepts a
// request once f+1 distinct nodes have vouched for it.
//
// With -ingress (sc/scr only) the node runs client admission control in
// front of its request pool: a per-client rate limiter with an optional
// failure-count lockout, a per-client pending bound, deficit-round-robin
// fair dequeue into batches, and an overload brownout that sheds
// over-share clients while the backlog exceeds its high watermark. A
// refused request is answered with a signed Rejected message carrying
// the decision code and a retry hint (delivered over the -clients reply
// channel; `sofclient -bench -listen` consumes it and backs off). The
// admission counters appear on /metrics as sof_ingress_*.
//
// With -tls every connection — node-to-node and client-to-node — is
// wrapped in TLS 1.3 before any frame flows. The identity is DevTLS:
// both endpoints derive the same certificate deterministically from
// -secret, so no files are exchanged (demo-grade trust, same standing
// as the dealer). All nodes and clients of a deployment must agree.
//
// With -groups N (sc/scr only) the node hosts N independent ordering
// groups behind its one listener: each group is a complete ordering
// cluster over the same physical nodes with its own coordinator pair —
// rotated, so group g's pair sits on different machines — and its own
// checkpoint WAL under -data-dir/g<i>/proto. Every frame of a sharded
// deployment carries a one-byte group address; all nodes and clients
// must agree on -groups (`sofclient -groups N` routes each request to
// its key's group). Requests in different groups are deliberately
// unordered relative to each other.
//
// Example 7-node SC cluster (f=2) on one machine:
//
//	for i in $(seq 0 6); do
//	  sofnode -id $i -f 2 -protocol sc \
//	    -peers 127.0.0.1:7000,127.0.0.1:7001,...,127.0.0.1:7006 &
//	done
//	sofclient -peers ... -n 10
package main

import (
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/node"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/types"
)

func main() {
	cfg := parseFlags(os.Args[1:])
	lns, err := listen(cfg)
	if err != nil {
		log.Fatalf("sofnode %d: %v", cfg.id, err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() { <-sig; close(stop) }()
	if err := run(cfg, lns, stop); err != nil {
		log.Fatalf("sofnode %d: %v", cfg.id, err)
	}
}

// listeners are the node's bound endpoints. run is handed them bound —
// main binds what the flags name, the in-process test binds port 0 and
// reads the addresses back — so nothing ever releases a port hoping to
// get it back.
type listeners struct {
	peer net.Listener // the transport's: this node's entry of -peers
	ops  net.Listener // the ops mux's: -metrics-addr (nil without it)
}

// listen binds the endpoints the flags name.
func listen(cfg config) (lns listeners, err error) {
	addrs := strings.Split(cfg.peers, ",")
	if cfg.id < 0 || cfg.id >= len(addrs) {
		return lns, fmt.Errorf("id %d has no address among the %d -peers", cfg.id, len(addrs))
	}
	if lns.peer, err = net.Listen("tcp", strings.TrimSpace(addrs[cfg.id])); err != nil {
		return lns, err
	}
	if cfg.metricsAddr != "" {
		if lns.ops, err = net.Listen("tcp", cfg.metricsAddr); err != nil {
			lns.peer.Close()
			return lns, fmt.Errorf("metrics listener: %w", err)
		}
	}
	return lns, nil
}

// run assembles the node (internal/node), serves on lns until stop closes
// or the transport dies, and shuts down cleanly: counters logged, stores
// flushed so the successor incarnation recovers everything. A fatal
// transport loss is returned as an error so supervisors restart the
// process.
func run(cfg config, lns listeners, stop <-chan struct{}) error {
	// The transport closes its listener itself; this covers the returns
	// that come before one exists.
	defer lns.peer.Close()
	if lns.ops != nil {
		defer lns.ops.Close()
	}
	if cfg.resume {
		cfg.auth = true
	}
	if cfg.ckptInterval != 0 && cfg.dataDir == "" {
		return errors.New("-ckpt-interval requires -data-dir")
	}
	proto, err := types.ParseProtocol(cfg.protocol)
	if err != nil {
		return err
	}
	if err := (node.Mode{
		Protocol: proto, Live: true, TCP: true, Groups: cfg.groups,
		AuthFrames: cfg.auth, TLS: cfg.tls, Ingress: cfg.ingress,
		Durable: cfg.dataDir != "", DataDir: cfg.dataDir,
	}).Check(); err != nil {
		return err
	}
	topo, err := types.NewTopology(proto, cfg.f)
	if err != nil {
		return err
	}
	peers, err := node.PeerAddrs(cfg.peers, topo)
	if err != nil {
		return err
	}
	self := types.NodeID(cfg.id)
	if !topo.IsProcess(self) {
		return fmt.Errorf("id %d is not a process of this topology", cfg.id)
	}
	for id, a := range cfg.clientAddrs() {
		peers[id] = a
	}
	dealt, err := node.DealFromSecret(crypto.SuiteName(cfg.suite), cfg.secret, topo, cfg.auth, cfg.tls)
	if err != nil {
		return err
	}
	logger := log.New(os.Stderr, fmt.Sprintf("sofnode[%d] ", cfg.id), log.Ltime|log.Lmicroseconds)
	// One registry for the whole node: every layer registers its
	// instruments here, -metrics-addr serves it, and the shutdown dump
	// renders it.
	reg := obs.NewRegistry()

	spec := cfg.spec(proto, topo, dealt)
	spec.Registry, spec.Logger = reg, logger
	spec.Hooks = func(int) node.Hooks {
		return node.Hooks{
			OnCommit: func(ev core.CommitEvent) {
				logger.Printf("COMMIT view=%d seqs=[%d..%d] entries=%d", ev.View, ev.FirstSeq, ev.LastSeq, len(ev.Entries))
			},
			OnFailSignal: func(ev core.FailSignalEvent) {
				logger.Printf("FAILSIGNAL pair=%d emitter=%v reason=%s", ev.Pair, ev.Emitter, ev.Reason)
			},
			OnInstalled: func(ev core.InstallEvent) {
				logger.Printf("INSTALLED coordinator rank=%d start_o=%d", ev.Rank, ev.StartSeq)
			},
		}
	}
	n, err := node.Build(spec)
	if err != nil {
		return err
	}
	defer n.Close()

	tcp, err := n.Listen("", lns.peer, n.Procs, peers)
	if err != nil {
		return err
	}
	tcp.Start()
	defer tcp.Stop()
	logger.Printf("up: %v f=%d n=%d groups=%d listening on %s (auth=%v resume=%v durable=%v tls=%v ingress=%v)",
		proto, cfg.f, topo.N(), cfg.groups, tcp.Addr(), cfg.auth, cfg.resume, cfg.dataDir != "", cfg.tls, cfg.ingress.Enabled)

	// Ops surface: /metrics, /healthz and /readyz (node.Ready — not ready
	// for exactly the restart catch-up window a rolling upgrade must wait
	// out, or while cut off from a majority).
	if lns.ops != nil {
		ready := func() error { return n.Ready(tcp.Transport()) }
		go func() { _ = http.Serve(lns.ops, obs.NewMux(reg, ready)) }()
		logger.Printf("ops surface on http://%s/metrics (/healthz, /readyz)", lns.ops.Addr())
	}

	select {
	case <-stop:
	case err = <-tcp.Fatal():
		// The transport is unrecoverable (listener died): report which
		// endpoint failed.
		err = fmt.Errorf("fatal transport loss on %s: %w", tcp.Addr(), err)
	}
	logFinalCounters(logger, reg)
	return err
}

// logFinalCounters dumps the node's registry on shutdown as one sorted,
// atomic block — Collect() orders families by name and samples by label
// set, and the single Printf keeps concurrent log lines from
// interleaving — so an operator sees the final ordering, transport,
// session and WAL counters (which links were lossy, what was
// retransmitted, where the watermark stopped) in one place.
func logFinalCounters(logger *log.Logger, reg *obs.Registry) {
	var b strings.Builder
	for _, f := range reg.Collect() {
		for _, s := range f.Samples {
			b.WriteString("\n  ")
			b.WriteString(f.Name)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
				}
				b.WriteByte('}')
			}
			if f.Kind == obs.KindHistogram && s.Histogram != nil {
				fmt.Fprintf(&b, " count=%d sum=%gs", s.Histogram.Count, s.Histogram.Sum)
				continue
			}
			fmt.Fprintf(&b, " %g", s.Value)
		}
	}
	logger.Printf("final counters:%s", b.String())
}
