// Command sofclient submits requests to a TCP sofnode cluster. It is a
// thin host: flags → the deal every node runs (node.DealFromSecret) → a
// client endpoint assembled like any node (node.Build) → a TCP node
// hosting the system's one client reactor (internal/client), which signs
// each request and multicasts it to every order process (clients "direct
// their requests to all nodes", Section 3). Its generator submits -n
// requests of -size bytes, one every -interval; request IDs start at the
// start time, so a second run under the same -client index never reuses
// IDs the nodes have already pooled.
//
// Submissions travel over the transport's own peer links, so -auth,
// -resume, -tls and -groups mean what they mean on sofnode and must match
// it; against a sharded deployment the endpoint hosts one reactor per
// ordering group, each submitting the requests whose routing key its group
// orders. Dial and handshake failures are logged with the peer and its
// address; reaching no order process at all is a non-zero exit.
//
// With -listen (an address the nodes were given via -clients) a request is
// accepted once f+1 distinct order processes have vouched for it with a
// signed Reply, and one refused at admission (`sofnode -ingress`) is
// resubmitted under a fresh ID after the node's RetryAfter hint plus
// jitter, up to -retries times; the client exits once every submission is
// accepted or shed, or -reply-wait after the last one. Without -listen it
// is fire-and-forget. -bench adds the exit report README describes.
package main

import (
	"flag"
	"fmt"
	"log"
	"maps"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"github.com/sof-repro/sof/internal/client"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/node"
	"github.com/sof-repro/sof/internal/runtime"
	"github.com/sof-repro/sof/internal/shard"
	"github.com/sof-repro/sof/internal/stats"
	"github.com/sof-repro/sof/internal/types"
)

func main() {
	var (
		f         = flag.Int("f", 2, "fault-tolerance parameter (to size the identity set)")
		protoStr  = flag.String("protocol", "sc", "protocol of the target cluster")
		suiteStr  = flag.String("suite", string(crypto.HMACSHA256), "signature suite")
		secret    = flag.String("secret", "streets-of-byzantium", "shared dealer secret")
		peersStr  = flag.String("peers", "", "comma-separated node addresses, index = node ID")
		n         = flag.Int("n", 10, "number of requests to submit")
		size      = flag.Int("size", 128, "request payload bytes")
		clientIdx = flag.Int("client", 0, "client index (identity 0..15)")
		interval  = flag.Duration("interval", 50*time.Millisecond, "gap between submissions")
		auth      = flag.Bool("auth", false, "authenticated frame-v2 sessions (must match the nodes' -auth)")
		resume    = flag.Bool("resume", false, "resumable sessions (implies -auth; must match the nodes)")
		bench     = flag.Bool("bench", false, "report submission, transport and (with -listen) commit-side summaries on exit")
		listen    = flag.String("listen", "", "listen address for the nodes' replies (give it to the nodes via -clients); enables f+1 acceptance, retries and commit-side latency")
		replyWait = flag.Duration("reply-wait", 5*time.Second, "after the last submission, how long to wait for frames still queued and replies still outstanding")
		groups    = flag.Int("groups", 1, "ordering groups of the target deployment (must match the nodes' -groups); >1 routes each request to its key's group")
		useTLS    = flag.Bool("tls", false, "TLS 1.3 on every node connection and the -listen reply listener, with the DevTLS identity derived from -secret (must match the nodes' -tls)")
		retries   = flag.Int("retries", 3, "resubmissions per request rejected at admission, each after a jittered backoff honouring the node's RetryAfter hint (requires -listen to hear the rejections)")
	)
	flag.Parse()
	if *n < 1 {
		log.Fatal("-n must be at least 1")
	}
	router := must(shard.New(*groups))
	proto := must(types.ParseProtocol(*protoStr))
	topo := must(types.NewTopology(proto, *f))
	peers := must(node.PeerAddrs(*peersStr, topo))
	dealt := must(node.DealFromSecret(crypto.SuiteName(*suiteStr), *secret, topo, *auth || *resume, *useTLS))
	me := types.ClientID(*clientIdx)
	if dealt.Idents[me] == nil {
		log.Fatalf("-client %d outside the %d dealt client identities", *clientIdx, node.SecretClients)
	}
	endpoint := must(node.Build(node.Spec{
		Self: me, Protocol: proto, Topo: topo, Groups: *groups, Idents: dealt.Idents,
		Links: dealt.Links, Resume: *resume, TLSServer: dealt.TLSServer, TLSClient: dealt.TLSClient,
		Logger: log.New(os.Stderr, fmt.Sprintf("sofclient[%d] ", *clientIdx), log.Ltime),
	}))
	defer endpoint.Close()

	// One reactor per ordering group, all running the same generator: each
	// submits the payloads its own group orders. Request IDs begin at the
	// start time — the rule session epochs follow — because the nodes never
	// forget an ID they have pooled.
	start := time.Now()
	seq := new(atomic.Uint64)
	seq.Store(uint64(start.UnixNano()))
	need, addr := 0, "127.0.0.1:0"
	if *listen != "" {
		need, addr = *f+1, *listen
	}
	clients := make([]*client.Client, *groups)
	procs := make([]runtime.Process, *groups)
	for g := range clients {
		clients[g] = client.New(client.Config{
			ID: me, Targets: topo.AllProcesses(), Seq: seq,
			Need: need, Retries: *retries, Seed: start.UnixNano() + int64(g),
			Load: &client.Load{Interval: *interval, Count: *n, Payload: func(i int) []byte {
				payload := make([]byte, *size)
				copy(payload, fmt.Sprintf("req-%d", i))
				if router.GroupFor(shard.RoutingKey(payload)) != g {
					return nil
				}
				return payload
			}},
		})
		procs[g] = clients[g]
	}
	tcp := must(endpoint.Listen(addr, nil, procs, peers))
	tcp.Start()
	if *listen != "" {
		fmt.Printf("listening for replies on %s (give the nodes -clients %s)\n", tcp.Addr(), tcp.Addr())
	}

	// Run until every reactor is done — generator exhausted, every tracked
	// submission settled — and the transport has written what it queued, or
	// until -reply-wait after the last tick.
	settled := func() bool {
		for _, c := range clients {
			select {
			case <-c.Done():
			default:
				return false
			}
		}
		for _, st := range tcp.Transport().Stats() {
			if st.Sent < st.Queued {
				return false
			}
		}
		return true
	}
	for end := start.Add(time.Duration(*n)*(*interval) + *replyWait); !settled() && time.Now().Before(end); {
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)
	peerStats := tcp.Transport().Stats()
	tcp.Stop() // the event loops have exited: the reactors are ours to read

	var sum client.Summary
	byGroup := make([]string, *groups)
	for g, c := range clients {
		s := c.Summary()
		byGroup[g] = fmt.Sprintf("g%d=%d", g, s.Submitted)
		sum.Add(s)
	}
	reached, perPeer := 0, ""
	for _, id := range topo.AllProcesses() {
		st := peerStats[id]
		if st.Sent > 0 {
			reached++
		}
		perPeer += fmt.Sprintf("bench: peer %v queued=%d sent=%d dropped=%d reconnects=%d\n",
			id, st.Queued, st.Sent, st.Dropped, st.Reconnects)
	}
	fmt.Printf("submitted %d requests to %d/%d order processes\n", sum.Submitted, reached, topo.N())
	if *bench {
		fmt.Printf("bench: submitted=%d elapsed=%v rate=%.1f req/s\n",
			sum.Submitted, elapsed.Round(time.Millisecond), stats.Rate(sum.Submitted, elapsed))
		if *groups > 1 {
			fmt.Printf("bench: submissions by group: %s\n", strings.Join(byGroup, " "))
		}
		fmt.Print(perPeer)
		if need > 0 {
			fmt.Printf("bench: commit observed=%d/%d accepted(f+1)=%d/%d bad_sig=%d\n",
				sum.Observed, sum.Submitted, sum.Accepted, sum.Submitted, sum.BadSig)
			fmt.Printf("bench: commit latency (first reply) %v\n", stats.Summarize(sum.First))
			fmt.Printf("bench: commit latency (f+1 replies) %v\n", stats.Summarize(sum.Quorum))
		}
		if len(sum.Rejects) > 0 {
			// Superseded originals are not an outcome of their own: the
			// retry carries the payload forward.
			rejects, parts := 0, []string(nil)
			for _, code := range slices.Sorted(maps.Keys(sum.Rejects)) {
				rejects += sum.Rejects[code]
				parts = append(parts, fmt.Sprintf("%s=%d", code, sum.Rejects[code]))
			}
			fmt.Printf("bench: ingress rejects=%d retried=%d outcomes: accepted=%d shed=%d pending=%d\n",
				rejects, sum.Retried, sum.Accepted, sum.Shed, sum.Pending)
			fmt.Printf("bench: rejects by code: %s\n", strings.Join(parts, " "))
		}
	}
	if reached == 0 {
		log.Fatal("no order process was reachable (see the dial errors above)")
	}
}

// must is main's error policy: any setup failure is fatal.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}
