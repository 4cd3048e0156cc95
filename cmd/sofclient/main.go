// Command sofclient submits requests to a TCP sofnode cluster: it derives
// its identity from the shared dealer secret, signs each request and
// multicasts it to every order process (clients "direct their requests to
// all nodes", Section 3). Watch the sofnode logs for COMMIT lines.
//
// With -auth (and optionally -resume) it speaks the same frame-v2
// authenticated sessions as sofnode; the flags must match the cluster's.
//
// Against a sharded deployment (`sofnode -groups N`) pass the same
// -groups N: the client derives each request's ordering group from its
// routing key (the same pure rendezvous map every node uses), prefixes
// the one-byte group address on the submission, and strips it off
// inbound commit replies. Acceptance stays per request — f+1 verified
// replies from the request's own group.
//
// Against an admission-controlled cluster (`sofnode -ingress`) the
// client consumes the nodes' signed Rejected messages on the same
// -listen channel as commit replies. A rejected request is retried with
// jittered backoff honouring the node's RetryAfter hint, up to -retries
// times; the bench summary classifies every submission's final outcome
// (accepted / shed / pending) and counts rejections by decision code.
//
// With -tls every node connection (and the -listen reply listener) is
// wrapped in TLS 1.3 using the DevTLS identity derived from -secret;
// must match the nodes' -tls.
//
// With -bench it reports a submission-side load summary on exit:
// submitted/failed counts, how many processes each submission reached,
// and a latency summary of the synchronous submit path (sign + frame +
// fan-out write). Adding -listen (an address the nodes were given via
// their -clients flag) completes the multi-machine benchmark mode: the
// client runs a listener, the nodes send a signed commit-observation
// Reply for every committed entry, and the bench additionally reports
// commit-side latency — submit-to-first-reply, and submit-to-(f+1)
// verified replies, the point at which a real client accepts the result.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/node"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/session"
	"github.com/sof-repro/sof/internal/shard"
	"github.com/sof-repro/sof/internal/stats"
	"github.com/sof-repro/sof/internal/tcpnet"
	"github.com/sof-repro/sof/internal/types"
)

// replyTracker accumulates commit-observation replies per request.
type replyTracker struct {
	mu        sync.Mutex
	submitted map[message.ReqID]time.Time
	replies   map[message.ReqID]map[types.NodeID]struct{}
	first     stats.Sampler // submit -> first verified reply
	quorum    stats.Sampler // submit -> (f+1)-th verified reply
	observed  int           // requests with >= 1 reply
	accepted  int           // requests with >= f+1 replies
	bad       int           // replies failing signature verification
	need      int           // f+1

	// Ingress backpressure state: requests the nodes refused at
	// admission, and the retry bookkeeping around them.
	payloads map[message.ReqID][]byte    // original payloads, for retries
	attempt  map[message.ReqID]int       // 0 for a first submission
	retryAt  map[message.ReqID]time.Time // rejected, due for a retry
	byCode   map[ingress.Code]int        // rejections by decision code
	rejects  int                         // Rejected messages consumed
	retried  int                         // retry submissions issued
	settled  int                         // superseded by a retry, or retries exhausted
	shed     int                         // settled with the retry budget spent
	rng      *rand.Rand                  // backoff jitter
}

// retryJob is one due retry: the refused request's payload and which
// attempt the resubmission will be.
type retryJob struct {
	payload []byte
	attempt int
}

func newReplyTracker(need int) *replyTracker {
	return &replyTracker{
		submitted: make(map[message.ReqID]time.Time),
		replies:   make(map[message.ReqID]map[types.NodeID]struct{}),
		need:      need,
		payloads:  make(map[message.ReqID][]byte),
		attempt:   make(map[message.ReqID]int),
		retryAt:   make(map[message.ReqID]time.Time),
		byCode:    make(map[ingress.Code]int),
		rng:       rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

func (rt *replyTracker) submit(id message.ReqID, at time.Time, payload []byte, attempt int) {
	rt.mu.Lock()
	rt.submitted[id] = at
	rt.payloads[id] = payload
	rt.attempt[id] = attempt
	rt.mu.Unlock()
}

func (rt *replyTracker) onReply(verifier *crypto.Identity, from types.NodeID, rep *message.Reply) {
	if rep.From != from {
		return // a node may not speak for another
	}
	if err := rep.VerifySig(verifier); err != nil {
		rt.mu.Lock()
		rt.bad++
		rt.mu.Unlock()
		return
	}
	id := message.ReqID{Client: rep.Client, ClientSeq: rep.ClientSeq}
	now := time.Now()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	t0, known := rt.submitted[id]
	if !known {
		return // a reply for someone else's request (or a stale run)
	}
	seen := rt.replies[id]
	if seen == nil {
		seen = make(map[types.NodeID]struct{})
		rt.replies[id] = seen
	}
	if _, dup := seen[rep.From]; dup {
		return // duplicate from the same node (resume replay etc.)
	}
	seen[rep.From] = struct{}{}
	switch len(seen) {
	case 1:
		rt.observed++
		rt.first.Add(now.Sub(t0))
	case rt.need:
		rt.accepted++
		rt.quorum.Add(now.Sub(t0))
	}
}

// onRejected consumes a node's signed backpressure signal: the request
// was refused at admission and this node will not order it. The tracker
// schedules a retry honouring the RetryAfter hint plus jitter (up to
// half the hint again), so a herd of rejected clients does not return in
// lockstep. maxRetries bounds resubmissions per original request; a
// request whose budget is spent is settled as shed.
func (rt *replyTracker) onRejected(verifier *crypto.Identity, from types.NodeID, rej *message.Rejected, maxRetries int) {
	if rej.From != from {
		return // a node may not speak for another
	}
	if err := rej.VerifySig(verifier); err != nil {
		rt.mu.Lock()
		rt.bad++
		rt.mu.Unlock()
		return
	}
	id := message.ReqID{Client: rej.Client, ClientSeq: rej.ClientSeq}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, known := rt.submitted[id]; !known {
		return // someone else's request, or a stale run
	}
	rt.rejects++
	rt.byCode[ingress.Code(rej.Code)]++
	if len(rt.replies[id]) >= rt.need {
		return // committed anyway (only the proposer's admission gates ordering)
	}
	if _, scheduled := rt.retryAt[id]; scheduled {
		return // another node already rejected it; one retry is enough
	}
	if rt.attempt[id] >= maxRetries {
		rt.settled++ // budget spent: this request is shed for good
		rt.shed++
		return
	}
	backoff := rej.RetryAfter
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	backoff += time.Duration(rt.rng.Int63n(int64(backoff/2) + 1))
	rt.retryAt[id] = time.Now().Add(backoff)
}

// dueRetries pops every rejected request whose backoff has expired and
// that still lacks an acceptance quorum. The popped originals are
// settled — their retry carries the payload forward under a fresh
// request ID.
func (rt *replyTracker) dueRetries(now time.Time) []retryJob {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var due []retryJob
	for id, at := range rt.retryAt {
		if now.Before(at) {
			continue
		}
		delete(rt.retryAt, id)
		if len(rt.replies[id]) >= rt.need {
			continue // a quorum landed while we were backing off
		}
		due = append(due, retryJob{payload: rt.payloads[id], attempt: rt.attempt[id] + 1})
		rt.settled++ // the original is superseded by the retry
		rt.retried++
	}
	return due
}

// done reports whether every submitted request has settled: accepted by
// an f+1 quorum, superseded by a retry, or shed with its retry budget
// spent.
func (rt *replyTracker) done() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.accepted+rt.settled >= len(rt.submitted) && len(rt.retryAt) == 0
}

func main() {
	var (
		f         = flag.Int("f", 2, "fault-tolerance parameter (to size the identity set)")
		protoStr  = flag.String("protocol", "sc", "protocol of the target cluster")
		suiteStr  = flag.String("suite", string(crypto.HMACSHA256), "signature suite")
		secret    = flag.String("secret", "streets-of-byzantium", "shared dealer secret")
		peersStr  = flag.String("peers", "", "comma-separated node addresses, index = node ID")
		n         = flag.Int("n", 10, "number of requests to submit")
		size      = flag.Int("size", 128, "request payload bytes")
		client    = flag.Int("client", 0, "client index (identity 0..15)")
		interval  = flag.Duration("interval", 50*time.Millisecond, "gap between submissions")
		auth      = flag.Bool("auth", false, "authenticated frame-v2 sessions (must match the nodes' -auth)")
		resume    = flag.Bool("resume", false, "resumable sessions (implies -auth; must match the nodes)")
		bench     = flag.Bool("bench", false, "report submission counts and latency summary on exit")
		listen    = flag.String("listen", "", "listen address for commit-observation replies (give it to the nodes via -clients); enables commit-side latency in -bench")
		replyWait = flag.Duration("reply-wait", 5*time.Second, "after the last submission, how long to wait for outstanding commit replies")
		groups    = flag.Int("groups", 1, "ordering groups of the target deployment (must match the nodes' -groups); >1 routes each request to its key's group and speaks the group-prefixed wire format")
		useTLS    = flag.Bool("tls", false, "TLS 1.3 on every node connection and the -listen reply listener, with the DevTLS identity derived from -secret (must match the nodes' -tls)")
		retries   = flag.Int("retries", 3, "resubmissions per request rejected at admission, each after a jittered backoff honouring the node's RetryAfter hint (requires -listen to hear the rejections)")
	)
	flag.Parse()
	if *resume {
		*auth = true
	}
	router, err := shard.New(*groups)
	if err != nil {
		log.Fatal(err)
	}

	proto, err := types.ParseProtocol(*protoStr)
	if err != nil {
		log.Fatal(err)
	}
	topo, err := types.NewTopology(proto, *f)
	if err != nil {
		log.Fatal(err)
	}
	addrs := strings.Split(*peersStr, ",")
	if len(addrs) != topo.N() {
		log.Fatalf("need %d peer addresses, got %d", topo.N(), len(addrs))
	}
	peers := make(map[types.NodeID]string, len(addrs))
	for i, a := range addrs {
		peers[types.NodeID(i)] = strings.TrimSpace(a)
	}

	// The same deterministic deal every node runs, so this client holds
	// the cluster's link keys and DevTLS pair: the client config for our
	// dials, the server config for the reply listener the nodes dial back
	// into.
	dealt, err := node.DealFromSecret(crypto.SuiteName(*suiteStr), *secret, topo, *auth, *useTLS)
	if err != nil {
		log.Fatal(err)
	}
	idents := dealt.Idents
	var clOpts []tcpnet.ClientOption
	var sessCfg *session.Config
	if *auth {
		sessCfg = &session.Config{Keys: dealt.Links, Resume: *resume}
		clOpts = append(clOpts, tcpnet.WithSession(sessCfg))
	}
	if *useTLS {
		clOpts = append(clOpts, tcpnet.WithTLS(dealt.TLSClient))
	}
	me := types.ClientID(*client)

	// The commit-observation listener: nodes dial this address (their
	// -clients flag) and send a signed Reply per committed entry.
	var tracker *replyTracker
	if *listen != "" {
		tracker = newReplyTracker(*f + 1)
		logger := log.New(os.Stderr, fmt.Sprintf("sofclient[%d] ", *client), log.Ltime)
		tr, err := tcpnet.Listen(me, *listen, nil, logger, tcpnet.Options{Session: sessCfg, TLSServer: dealt.TLSServer})
		if err != nil {
			log.Fatalf("listening for commit replies: %v", err)
		}
		defer tr.Close()
		tr.Start(func(from types.NodeID, frame []byte) {
			// Sharded deployments group-prefix every frame, replies
			// included; the group byte is addressing, not content.
			if *groups > 1 {
				if len(frame) < 1 || int(frame[0]) >= *groups {
					return
				}
				frame = frame[1:]
			}
			m, err := message.Decode(frame)
			if err != nil {
				return
			}
			switch m := m.(type) {
			case *message.Reply:
				tracker.onReply(idents[me], from, m)
			case *message.Rejected:
				tracker.onRejected(idents[me], from, m, *retries)
			}
		})
		fmt.Printf("listening for commit replies on %s (give the nodes -clients %s)\n", tr.Addr(), tr.Addr())
	}

	cl := tcpnet.NewClient(me, idents[me], peers, clOpts...)
	defer cl.Close()

	// Submit latency goes into the same fixed-boundary histogram type the
	// nodes expose for WAL fsyncs: allocation-free to record, and the
	// summary is bucket-quantile based, so arbitrarily long runs cost
	// constant memory (the exact-sample Sampler stays on the bounded
	// commit-reply paths).
	var (
		submitHist = obs.NewHistogram(obs.DefBuckets())
		submitted  int
		failed     int
		reachedAll int
	)
	byGroup := make([]int, *groups)
	// sendOne routes one payload — in sharded deployments by its key with
	// the same pure map every node holds, speaking the group-prefixed
	// wire format — and is shared by first submissions and retries.
	sendOne := func(payload []byte) (message.ReqID, int, error) {
		if *groups > 1 {
			g := router.GroupFor(shard.RoutingKey(payload))
			byGroup[g]++
			return cl.SubmitToGroup(g, payload)
		}
		return cl.Submit(payload)
	}
	start := time.Now()
	for i := 0; i < *n; i++ {
		payload := make([]byte, *size)
		copy(payload, fmt.Sprintf("req-%d", i))
		t0 := time.Now()
		var (
			id      message.ReqID
			reached int
			err     error
		)
		id, reached, err = sendOne(payload)
		submitHist.ObserveDuration(time.Since(t0))
		if tracker != nil {
			tracker.submit(id, t0, payload, 0)
		}
		if reached == 0 {
			// Total transport loss is fatal: every peer failed, and err
			// names each one with its address.
			log.Fatalf("submit %d reached no process:\n%v", i, err)
		}
		submitted++
		if reached == topo.N() {
			reachedAll++
		}
		if err != nil {
			failed++
			log.Printf("submit %d: %d/%d processes unreachable:\n%v", i, topo.N()-reached, topo.N(), err)
		}
		if !*bench {
			fmt.Printf("submitted %v to %d/%d processes\n", id, reached, topo.N())
		}
		time.Sleep(*interval)
	}
	if tracker != nil {
		// Let stragglers arrive — commit-side latency includes batching,
		// ordering and the reply leg — and pump the retry queue: a request
		// the nodes rejected at admission is resubmitted under a fresh
		// request ID once its jittered backoff expires.
		deadline := time.Now().Add(*replyWait)
		for !tracker.done() && time.Now().Before(deadline) {
			for _, job := range tracker.dueRetries(time.Now()) {
				t0 := time.Now()
				id, reached, err := sendOne(job.payload)
				if reached == 0 {
					log.Printf("retry (attempt %d) reached no process:\n%v", job.attempt, err)
					continue
				}
				submitted++
				tracker.submit(id, t0, job.payload, job.attempt)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if *bench {
		elapsed := time.Since(start)
		fmt.Printf("bench: submitted=%d reached_all=%d partial=%d elapsed=%v rate=%.1f req/s\n",
			submitted, reachedAll, failed, elapsed.Round(time.Millisecond),
			stats.Rate(submitted, elapsed))
		if *groups > 1 {
			parts := make([]string, *groups)
			for g, c := range byGroup {
				parts[g] = fmt.Sprintf("g%d=%d", g, c)
			}
			fmt.Printf("bench: submissions by group: %s\n", strings.Join(parts, " "))
		}
		fmt.Printf("bench: submit latency %v\n", submitHist)
		if tracker != nil {
			tracker.mu.Lock()
			fmt.Printf("bench: commit observed=%d/%d accepted(f+1)=%d/%d bad_sig=%d\n",
				tracker.observed, submitted, tracker.accepted, submitted, tracker.bad)
			fmt.Printf("bench: commit latency (first reply) %v\n", tracker.first.Summary())
			fmt.Printf("bench: commit latency (f+1 replies) %v\n", tracker.quorum.Summary())
			if tracker.rejects > 0 {
				// Outcome classification under admission control: every
				// submission ends accepted (f+1 quorum), shed (rejected with
				// the retry budget spent), or pending (no quorum yet when the
				// reply wait expired; superseded originals are excluded —
				// their retry carries the payload forward).
				pendingN := len(tracker.submitted) - tracker.accepted - tracker.settled
				fmt.Printf("bench: ingress rejects=%d retried=%d outcomes: accepted=%d shed=%d pending=%d\n",
					tracker.rejects, tracker.retried, tracker.accepted, tracker.shed, pendingN)
				parts := make([]string, 0, len(tracker.byCode))
				for c := ingress.Code(0); c <= ingress.InflightCap; c++ {
					if n := tracker.byCode[c]; n > 0 {
						parts = append(parts, fmt.Sprintf("%s=%d", c, n))
					}
				}
				fmt.Printf("bench: rejects by code: %s\n", strings.Join(parts, " "))
			}
			tracker.mu.Unlock()
		}
	}
}
