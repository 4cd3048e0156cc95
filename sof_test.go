package sof_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	sof "github.com/sof-repro/sof"
	"github.com/sof-repro/sof/internal/runtime"
)

func TestPublicAPIQuickstartSimulated(t *testing.T) {
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:      sof.SC,
		Simulated:     true,
		BatchInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()
	id, err := cluster.Submit([]byte("hello byzantium"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.AwaitCommit(id, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if s := cluster.Latency(); s.Count == 0 {
		t.Error("no latency recorded")
	}
}

func TestPublicAPIKVStoreAcrossProtocols(t *testing.T) {
	for _, proto := range []sof.Protocol{sof.SC, sof.SCR, sof.BFT, sof.CT} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			cluster, err := sof.NewCluster(sof.Config{
				Protocol:      proto,
				Simulated:     true,
				BatchInterval: 10 * time.Millisecond,
				StateMachine:  sof.NewKVStore,
			})
			if err != nil {
				t.Fatal(err)
			}
			cluster.Start()
			defer cluster.Stop()

			set, err := cluster.Submit(sof.EncodeKV(sof.KVSet, "colour", "purple"))
			if err != nil {
				t.Fatal(err)
			}
			if err := cluster.AwaitCommit(set, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			get, err := cluster.Submit(sof.EncodeKV(sof.KVGet, "colour", ""))
			if err != nil {
				t.Fatal(err)
			}
			if err := cluster.AwaitCommit(get, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			cluster.RunFor(500 * time.Millisecond)
			results := cluster.Results(get)
			if len(results) < cluster.Harness().Topo.Quorum() {
				t.Fatalf("only %d replicas executed the read", len(results))
			}
			for node, res := range results {
				if !bytes.Equal(res, []byte("purple")) {
					t.Errorf("replica %v read %q, want purple", node, res)
				}
			}
		})
	}
}

func TestPublicAPIFaultInjection(t *testing.T) {
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:      sof.SC,
		Simulated:     true,
		BatchInterval: 10 * time.Millisecond,
		StateMachine:  sof.NewCounter,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()
	pre, err := cluster.Submit([]byte("before fault"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.AwaitCommit(pre, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := cluster.InjectCoordinatorValueFault(); err != nil {
		t.Fatal(err)
	}
	cluster.RunFor(2 * time.Second)
	post, err := cluster.Submit([]byte("after fault"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.AwaitCommit(post, 10*time.Second); err != nil {
		t.Fatalf("ordering did not survive the fault: %v", err)
	}
	if d, ok := cluster.Harness().Events.FailOverLatency(); !ok || d <= 0 {
		t.Errorf("fail-over latency not measured: %v %v", d, ok)
	}
}

// TestPublicAPIReplicasExecuteOnCommit: each replica executes on its order
// process's event loop as the process commits, so with no API call in
// between — Harness().RunFor only advances virtual time — every node's
// applied watermark, as its own metric reports it, already equals its
// delivered watermark.
func TestPublicAPIReplicasExecuteOnCommit(t *testing.T) {
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:      sof.SC,
		Simulated:     true,
		BatchInterval: 10 * time.Millisecond,
		StateMachine:  sof.NewCounter,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()
	h := cluster.Harness()
	for i := 0; i < 20; i++ {
		if _, err := cluster.Submit([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
		h.RunFor(3 * time.Millisecond)
	}
	h.RunFor(time.Second)
	for _, node := range cluster.Processes() {
		st, ok := cluster.OrderState(node)
		if !ok || st.DeliveredUpTo == 0 {
			t.Fatalf("node %v delivered nothing (%+v, ok=%v)", node, st, ok)
		}
		applied := -1.0
		for _, fam := range cluster.Metrics(node) {
			if fam.Name == "sof_replica_applied_seq" && len(fam.Samples) > 0 {
				applied = fam.Samples[0].Value
			}
		}
		if applied != float64(st.DeliveredUpTo) {
			t.Errorf("node %v: sof_replica_applied_seq = %v, delivered watermark %d", node, applied, st.DeliveredUpTo)
		}
	}
}

func TestPublicAPILiveMode(t *testing.T) {
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:      sof.SC,
		BatchInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()
	id, err := cluster.Submit([]byte("live"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.AwaitCommit(id, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIMetricsAndOpsHandler covers the programmatic ops surface:
// Metrics collects every layer's families, Readiness reports ready on a
// settled cluster, OpsHandler serves /metrics, /healthz and /readyz.
func TestPublicAPIMetricsAndOpsHandler(t *testing.T) {
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:      sof.SC,
		BatchInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()
	id, err := cluster.Submit([]byte("observed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.AwaitCommit(id, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The recorder resolves AwaitCommit on the commit event; the gauge
	// write is a separate hook on the process's own loop, so allow it a
	// moment to land.
	node := cluster.Processes()[0]
	watermark := -1.0
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		for _, fam := range cluster.Metrics(node) {
			if fam.Name == "sof_commit_watermark" && len(fam.Samples) > 0 {
				watermark = fam.Samples[0].Value
			}
		}
		if watermark > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if watermark <= 0 {
		t.Errorf("sof_commit_watermark = %v after a commit, want > 0", watermark)
	}
	if err := cluster.Readiness(node)(); err != nil {
		t.Errorf("Readiness on a settled cluster: %v", err)
	}
	srv := httptest.NewServer(cluster.OpsHandler(node))
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "sof_commit_watermark") {
		t.Errorf("/metrics: status %d, watermark present=%v", code, strings.Contains(body, "sof_commit_watermark"))
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz: status %d", code)
	}
	if code, body := get("/readyz"); code != 200 {
		t.Errorf("/readyz: status %d body %q", code, body)
	}
}

// TestPublicAPITCPTransport runs the full SC protocol over the TCP
// runtime: every order process is a real loopback TCP endpoint, requests
// cross actual sockets, and ordering completes end to end.
func TestPublicAPITCPTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:      sof.SC,
		Transport:     sof.TCP,
		BatchInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()
	for i := 0; i < 4; i++ {
		id, err := cluster.Submit([]byte("over tcp"))
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.AwaitCommit(id, 15*time.Second); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

// TestPublicAPIRetentionBoundsCommittedIndex is the public-API regression
// test for the committed-index watermark: with bounded CommitRetention —
// — RunFor and AwaitCommit prune below the ring — the index must hold
// steady-state size instead of growing with every distinct request.
func TestPublicAPIRetentionBoundsCommittedIndex(t *testing.T) {
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:        sof.SC,
		Simulated:       true,
		BatchInterval:   10 * time.Millisecond,
		CommitRetention: 64, // raised to the per-wave floor internally
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()
	const reqs = 300
	var last sof.ReqID
	for i := 0; i < reqs; i++ {
		if last, err = cluster.Submit([]byte("bounded")); err != nil {
			t.Fatal(err)
		}
		cluster.RunFor(5 * time.Millisecond)
	}
	if err := cluster.AwaitCommit(last, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	cluster.RunFor(100 * time.Millisecond) // let every process finish committing
	if n := cluster.Harness().Events.CommittedIndexSize(); n >= reqs {
		t.Errorf("committed index holds %d entries after %d requests; watermark never pruned", n, reqs)
	}
	// The most recent request must still be answered from the index.
	if err := cluster.AwaitCommit(last, time.Second); err != nil {
		t.Errorf("recent request lost from index: %v", err)
	}
}

// TestPublicAPIDurableConfigValidation pins the Durable/DataDir rules.
func TestPublicAPIDurableConfigValidation(t *testing.T) {
	if _, err := sof.NewCluster(sof.Config{Protocol: sof.SC, Durable: true}); err == nil {
		t.Error("Durable accepted without DataDir")
	}
	if _, err := sof.NewCluster(sof.Config{
		Protocol: sof.SC, Simulated: true, Durable: true, DataDir: t.TempDir(),
	}); err == nil {
		t.Error("Durable accepted on the simulator")
	}
	if _, err := sof.NewCluster(sof.Config{Protocol: sof.SC, DataDir: t.TempDir()}); err == nil {
		t.Error("DataDir accepted without Durable")
	}
	if _, err := sof.NewCluster(sof.Config{Protocol: sof.SC, NetShaping: true}); err == nil {
		t.Error("NetShaping accepted without Transport: TCP")
	}
}

// durableKillRestartScenario drives the crash scenario the in-memory
// retransmission ring provably loses: requests submitted while the
// client's links are all severed are sealed into the client node's
// session state but reach no order process; the client process is then
// killed and restarted. With Durable the restarted incarnation recovers
// the dead one's unacknowledged window from its write-ahead log and
// replays it after the authenticated handshake; without Durable the
// window died with the process. It returns the IDs of the at-risk
// requests and the total submitted.
func durableKillRestartScenario(t *testing.T, cluster *sof.Cluster) (atRisk []sof.ReqID, total int) {
	t.Helper()
	h := cluster.Harness()

	// Baseline: the cluster orders normally, and the probe reveals the
	// built-in client's NodeID.
	cid := submitOneID(t, cluster).Client
	total++

	// Sever every link of the built-in client (fabric isolation applies
	// to the real sockets via NetShaping), then submit: the requests are
	// sealed — and journalled — by the client node's senders but cannot
	// reach any order process.
	h.Fabric.Isolate(cid)
	const k = 5
	for i := 0; i < k; i++ {
		id, err := cluster.Submit([]byte(fmt.Sprintf("at-risk-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		atRisk = append(atRisk, id)
		total++
	}
	// Let the sender loops drain and seal, then place the durability
	// point: group-commit whatever has been journalled.
	time.Sleep(300 * time.Millisecond)
	if err := h.SyncDurable(); err != nil {
		t.Fatal(err)
	}
	// None of the at-risk requests may have committed (the links are cut).
	for i, id := range atRisk {
		if err := cluster.AwaitCommit(id, 50*time.Millisecond); err == nil {
			t.Fatalf("at-risk request %d committed through a severed link; scenario invalid", i)
		}
	}

	// Crash the client process and heal the network for its successor.
	if err := h.KillNode(cid); err != nil {
		t.Fatal(err)
	}
	h.Fabric.Rejoin(cid)
	if err := h.RestartNode(cid); err != nil {
		t.Fatal(err)
	}
	return atRisk, total
}

// submitOneID submits a throwaway request to learn the built-in client's
// NodeID (the public API does not expose it directly).
func submitOneID(t *testing.T, cluster *sof.Cluster) sof.ReqID {
	t.Helper()
	id, err := cluster.Submit([]byte("id probe"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.AwaitCommit(id, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestPublicAPIDurableKillRestartZeroLoss is the crash-recovery
// acceptance test: every request commits at every order process even
// though some were only ever held in the killed incarnation's
// unacknowledged retransmission window — the case PR 3's in-memory ring
// provably loses (see the sensitivity test below).
func TestPublicAPIDurableKillRestartZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:      sof.SC,
		F:             1,
		Transport:     sof.TCP,
		AuthFrames:    true,
		SessionResume: true,
		Durable:       true,
		DataDir:       t.TempDir(),
		NetShaping:    true,
		BatchInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	atRisk, total := durableKillRestartScenario(t, cluster)

	// The restarted incarnation replays the dead one's window: every
	// at-risk request must now commit.
	for i, id := range atRisk {
		if err := cluster.AwaitCommit(id, 30*time.Second); err != nil {
			t.Fatalf("request %d from the dead incarnation's unacked window lost: %v", i, err)
		}
	}
	// Zero loss means every order process — not just the first to commit
	// — eventually commits every request.
	h := cluster.Harness()
	deadline := time.Now().Add(15 * time.Second)
	for {
		lagging := ""
		for _, node := range h.Topo.AllProcesses() {
			if n := h.Events.CommittedEntries(node); n < total {
				lagging = fmt.Sprintf("process %v committed %d/%d entries", node, n, total)
				break
			}
		}
		if lagging == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("loss despite Durable: %s", lagging)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestPublicAPIKillRestartLosesWindowWithoutDurable is the sensitivity
// check for the test above: the identical scenario with Durable off loses
// the killed incarnation's unacknowledged window — proving the zero-loss
// result comes from the write-ahead log, not from some other layer
// quietly saving the day.
func TestPublicAPIKillRestartLosesWindowWithoutDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:      sof.SC,
		F:             1,
		Transport:     sof.TCP,
		AuthFrames:    true,
		SessionResume: true,
		NetShaping:    true,
		BatchInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	atRisk, _ := durableKillRestartScenario(t, cluster)
	// One generous window for the whole batch, then a short check each:
	// anything that was going to commit has by now.
	lost := 0
	for i, id := range atRisk {
		timeout := 200 * time.Millisecond
		if i == 0 {
			timeout = 3 * time.Second
		}
		if err := cluster.AwaitCommit(id, timeout); err != nil {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("no requests lost without Durable; the kill-restart test would not prove durability")
	}
}

// TestPublicAPIDurableHistoryAcrossReopen: a cluster reopened on the same
// DataDir answers commit checks for requests ordered by its previous
// incarnation, and new clients continue the request-ID namespace instead
// of colliding with history.
func TestPublicAPIDurableHistoryAcrossReopen(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	dir := t.TempDir()
	build := func() *sof.Cluster {
		cluster, err := sof.NewCluster(sof.Config{
			Protocol:      sof.SC,
			F:             1,
			Transport:     sof.TCP,
			Durable:       true,
			DataDir:       dir,
			BatchInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cluster
	}
	c1 := build()
	c1.Start()
	var old []sof.ReqID
	for i := 0; i < 3; i++ {
		id, err := c1.Submit([]byte(fmt.Sprintf("history-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := c1.AwaitCommit(id, 20*time.Second); err != nil {
			t.Fatal(err)
		}
		old = append(old, id)
	}
	c1.Stop()

	c2 := build()
	c2.Start()
	defer c2.Stop()
	// Pre-crash commits are answered from the recovered index.
	for i, id := range old {
		if err := c2.AwaitCommit(id, time.Second); err != nil {
			t.Errorf("history request %d forgotten across reopen: %v", i, err)
		}
	}
	// A new submission must not reuse a committed ClientSeq.
	fresh, err := c2.Submit([]byte("after reopen"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range old {
		if fresh == id {
			t.Fatalf("reopened cluster reused request ID %v", id)
		}
	}
	if fresh.ClientSeq <= old[len(old)-1].ClientSeq {
		t.Fatalf("ClientSeq regressed across reopen: %d after %d", fresh.ClientSeq, old[len(old)-1].ClientSeq)
	}
	if err := c2.AwaitCommit(fresh, 20*time.Second); err != nil {
		t.Fatalf("reopened cluster cannot order new requests: %v", err)
	}
}

// restartCatchUpScenario drives the crash scenario transport-level
// durability provably cannot recover: an order process (a plain replica,
// never a coordinator candidate) is killed, the cluster commits enough
// requests that every peer's bounded retransmission ring evicts the
// frames queued for the dead node — pruning its backlog below the
// restart point — and the node is then restarted. It returns the victim
// and the total number of submitted requests.
func restartCatchUpScenario(t *testing.T, cluster *sof.Cluster) (victim sof.NodeID, ids []sof.ReqID) {
	t.Helper()
	h := cluster.Harness()
	victim, err := h.Topo.ReplicaID(h.Topo.NumReplicas())
	if err != nil {
		t.Fatal(err)
	}

	submitAwait := func(payload string) {
		t.Helper()
		id, err := cluster.Submit([]byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.AwaitCommit(id, 20*time.Second); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	// Baseline: enough committed sequence numbers that the victim has
	// delivered them and (with checkpoints on) written a checkpoint.
	for i := 0; i < 6; i++ {
		submitAwait(fmt.Sprintf("baseline-%d", i))
	}
	deadline := time.Now().Add(15 * time.Second)
	for h.Events.CommittedEntries(victim) < len(ids) {
		if time.Now().After(deadline) {
			t.Fatalf("victim %v lags the baseline: %d/%d", victim, h.Events.CommittedEntries(victim), len(ids))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Place the durability point: whatever has been checkpointed is now
	// on disk (a real deployment gets this from the group-commit cadence).
	if err := h.SyncDurable(); err != nil {
		t.Fatal(err)
	}

	if err := h.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	// The cluster keeps ordering at quorum without the victim; every
	// commit wave queues frames for the dead node, overflowing each
	// peer's small retransmission ring (SessionRingLen) many times over.
	for i := 0; i < 40; i++ {
		submitAwait(fmt.Sprintf("while-dead-%d", i))
	}
	if err := h.RestartNode(victim); err != nil {
		t.Fatal(err)
	}
	return victim, ids
}

// assertRingsWerePruned fails the calling test unless at least one peer's
// sender to the victim evicted frames from its retransmission ring — the
// precondition that makes the catch-up scenario meaningful (with intact
// rings, session replay alone could deliver the backlog).
func assertRingsWerePruned(t *testing.T, cluster *sof.Cluster, victim sof.NodeID) {
	t.Helper()
	h := cluster.Harness()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var lost uint64
		for _, node := range h.Topo.AllProcesses() {
			if node == victim {
				continue
			}
			if n, ok := h.TCP().Node(node); ok {
				lost += n.Transport().Stats()[victim].SessionLost
			}
		}
		if lost > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no peer evicted ring frames for the dead node; the scenario does not prune rings")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestPublicAPIDurableRestartCatchUpZeroLoss is the protocol-recovery
// acceptance test: a killed order process restarts after its peers'
// retransmission rings pruned everything it missed, restores its durable
// protocol checkpoint, and catches up through CatchUp — request payloads
// included — until it has committed (and executed) every request, with
// zero loss. The sensitivity twin below proves the recovery comes from
// the protocol checkpoints, not from some other layer.
func TestPublicAPIDurableRestartCatchUpZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:           sof.SC,
		F:                  1,
		Transport:          sof.TCP,
		AuthFrames:         true,
		SessionResume:      true,
		SessionRingLen:     16,
		Durable:            true,
		DataDir:            t.TempDir(),
		CheckpointInterval: 4,
		BatchInterval:      10 * time.Millisecond,
		StateMachine:       sof.NewCounter,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	victim, ids := restartCatchUpScenario(t, cluster)
	assertRingsWerePruned(t, cluster, victim)

	// Zero loss: the restarted process catches up past the pruned rings
	// and commits every request ever submitted (re-deliveries above its
	// checkpoint may push the count past total; below total is loss).
	h := cluster.Harness()
	total := len(ids)
	deadline := time.Now().Add(30 * time.Second)
	for h.Events.CommittedEntries(victim) < total {
		if time.Now().After(deadline) {
			t.Fatalf("loss despite checkpoints: victim committed %d/%d entries",
				h.Events.CommittedEntries(victim), total)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The catch-up carried the request payloads too: the victim's replica
	// executes the whole sequence (the counter reaches total only if every
	// request applied in order, none lost, none doubled).
	last, err := cluster.Submit([]byte("post-restart"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.AwaitCommit(last, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	ids = append(ids, last)
	total++
	deadline = time.Now().Add(20 * time.Second)
	for {
		if res, ok := cluster.Result(victim, last); ok {
			if got, want := string(res), fmt.Sprintf("%d", total); got != want {
				t.Fatalf("victim's state machine applied a different sequence: counter=%s, want %s", got, want)
			}
			return
		}
		if time.Now().After(deadline) {
			for i, id := range ids {
				if _, ok := cluster.Result(victim, id); !ok {
					t.Logf("victim result missing first at request %d (%v)", i, id)
					break
				}
			}
			// Read process state inside its event loop (the fields are
			// event-loop-owned; off-loop reads would race).
			var maxDelivered uint64
			var catching, hasLast bool
			var poolLen int
			done := make(chan struct{})
			if err := h.Inject(victim, func(runtime.Env) {
				p := h.SCProcess(victim)
				maxDelivered = uint64(p.MaxDelivered())
				catching = p.CatchingUp()
				poolLen = p.Pool().Len()
				_, hasLast = p.Pool().Get(last)
				close(done)
			}); err == nil {
				<-done
			}
			applied, pend, results, _ := cluster.ReplicaState(victim)
			t.Logf("victim state: committedEntries=%d delivered=%d catchingUp=%v poolLen=%d hasLastPayload=%v replica(applied=%d pending=%d results=%d)",
				h.Events.CommittedEntries(victim), maxDelivered, catching, poolLen, hasLast,
				applied, pend, results)
			t.Fatal("victim's replica never executed the post-restart request (payload catch-up failed)")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestPublicAPIRestartCatchUpLostWithoutProtolog is the sensitivity twin:
// the identical scenario with protocol checkpoints disabled
// (CheckpointInterval -1; session journals and the commit stream stay
// durable) leaves the restarted process stranded — the pruned rings
// cannot replay what it missed and no protocol-level catch-up exists —
// proving the zero-loss result above comes from the protolog layer.
func TestPublicAPIRestartCatchUpLostWithoutProtolog(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:           sof.SC,
		F:                  1,
		Transport:          sof.TCP,
		AuthFrames:         true,
		SessionResume:      true,
		SessionRingLen:     16,
		Durable:            true,
		DataDir:            t.TempDir(),
		CheckpointInterval: -1,
		BatchInterval:      10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	victim, ids := restartCatchUpScenario(t, cluster)
	assertRingsWerePruned(t, cluster, victim)

	// Give the restarted process ample time, then check: without
	// checkpoints it cannot rejoin the committed sequence.
	time.Sleep(4 * time.Second)
	if n := cluster.Harness().Events.CommittedEntries(victim); n >= len(ids) {
		t.Fatalf("victim committed %d/%d entries without protocol checkpoints; the zero-loss test would not prove anything", n, len(ids))
	}
}

// TestPublicAPICheckpointConfigValidation pins the new knobs' validation.
func TestPublicAPICheckpointConfigValidation(t *testing.T) {
	if _, err := sof.NewCluster(sof.Config{Protocol: sof.SC, CheckpointInterval: 4}); err == nil {
		t.Error("CheckpointInterval accepted without Durable")
	}
	if _, err := sof.NewCluster(sof.Config{Protocol: sof.SC, SessionRingLen: 8}); err == nil {
		t.Error("SessionRingLen accepted without SessionResume")
	}
}

// TestPublicAPITCPRejectsSimulated pins the config validation: the
// simulator has no TCP substrate.
func TestPublicAPITCPRejectsSimulated(t *testing.T) {
	if _, err := sof.NewCluster(sof.Config{
		Protocol:  sof.SC,
		Simulated: true,
		Transport: sof.TCP,
	}); err == nil {
		t.Fatal("Simulated+TCP config accepted")
	}
}

// TestPublicAPIAuthRequiresTCP pins the config validation: authenticated
// sessions are a TCP-transport feature.
func TestPublicAPIAuthRequiresTCP(t *testing.T) {
	if _, err := sof.NewCluster(sof.Config{Protocol: sof.SC, AuthFrames: true}); err == nil {
		t.Fatal("AuthFrames accepted without Transport: TCP")
	}
	if _, err := sof.NewCluster(sof.Config{Protocol: sof.SC, SessionResume: true}); err == nil {
		t.Fatal("SessionResume accepted without Transport: TCP")
	}
}

// TestPublicAPISessionResumeNoFrameLoss is the kill-and-restart
// acceptance test: an SC cluster over TCP with authenticated resumable
// sessions has every live connection forcibly killed repeatedly while
// requests are in flight, and still commits every submitted request at
// every order process — zero frame loss. (Without SessionResume the
// transport abandons in-flight frames on reconnect, so nodes behind a
// killed connection would miss order batches forever in a fail-free run.)
func TestPublicAPISessionResumeNoFrameLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:      sof.SC,
		F:             1,
		Transport:     sof.TCP,
		AuthFrames:    true,
		SessionResume: true,
		BatchInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	h := cluster.Harness()
	const reqs = 30
	ids := make([]sof.ReqID, 0, reqs)
	for i := 0; i < reqs; i++ {
		id, err := cluster.Submit([]byte("survives disconnects"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if i%5 == 2 {
			// Kill every live connection in the cluster — client links
			// and node-to-node links — while frames are in flight.
			h.TCP().BounceConns()
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, id := range ids {
		if err := cluster.AwaitCommit(id, 20*time.Second); err != nil {
			t.Fatalf("request %d lost across a forced disconnect: %v", i, err)
		}
	}
	// Zero frame loss means every order process — not just the first to
	// commit — eventually commits every entry.
	deadline := time.Now().Add(10 * time.Second)
	for {
		lagging := ""
		for _, node := range h.Topo.AllProcesses() {
			if n := h.Events.CommittedEntries(node); n < reqs {
				lagging = fmt.Sprintf("process %v committed %d/%d entries", node, n, reqs)
				break
			}
		}
		if lagging == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("frame loss despite SessionResume: %s", lagging)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// primaryRestartScenario commits a baseline under the acting primary,
// snapshots its proposer state, then kills and immediately restarts it
// (well inside Delta, so the pair protocol never times the crash out —
// whatever happens next is decided by how the restarted incarnation
// picks its proposal sequence, not by fail-over timers). It returns the
// primary's NodeID and its pre-kill proposer snapshot.
func primaryRestartScenario(t *testing.T, cluster *sof.Cluster) (sof.NodeID, sof.OrderState) {
	t.Helper()
	h := cluster.Harness()
	primary, _, _, err := h.Topo.Candidate(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		id, err := cluster.Submit([]byte(fmt.Sprintf("pre-kill-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.AwaitCommit(id, 20*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	pre, ok := cluster.OrderState(primary)
	if !ok {
		t.Fatalf("no order state for primary %v", primary)
	}
	if pre.NextPropose < 2 {
		t.Fatalf("baseline never advanced the proposal counter: %+v", pre)
	}
	// Group-commit the journalled proposal counter (a real deployment gets
	// this from the group-commit cadence on the batching interval).
	if err := h.SyncDurable(); err != nil {
		t.Fatal(err)
	}
	if err := h.KillNode(primary); err != nil {
		t.Fatal(err)
	}
	if err := h.RestartNode(primary); err != nil {
		t.Fatal(err)
	}
	return primary, pre
}

// TestPublicAPIPipelinedPrimaryRestartResumesJournalledSeq is the
// recovery acceptance test for the pipelined proposer: a killed-and-
// restarted primary recovers its journalled proposal counter, refines it
// to the shadow's exact expectation during catch-up, and resumes
// proposing at a sequence the shadow endorses — new requests commit and
// no fail-signal is ever emitted. The sensitivity twin below proves the
// clean resume comes from the proposal journal + pair-assisted catch-up,
// not from fail-over quietly repairing the sequence.
func TestPublicAPIPipelinedPrimaryRestartResumesJournalledSeq(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:           sof.SC,
		F:                  1,
		Transport:          sof.TCP,
		AuthFrames:         true,
		SessionResume:      true,
		Durable:            true,
		DataDir:            t.TempDir(),
		CheckpointInterval: 4,
		BatchInterval:      10 * time.Millisecond,
		Delta:              30 * time.Second,
		MaxInflightBatches: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	primary, pre := primaryRestartScenario(t, cluster)

	// The restarted primary must keep ordering: post-restart requests
	// commit under the same coordinator.
	for i := 0; i < 4; i++ {
		id, err := cluster.Submit([]byte(fmt.Sprintf("post-restart-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.AwaitCommit(id, 30*time.Second); err != nil {
			t.Fatalf("post-restart request %d never committed: %v", i, err)
		}
	}
	// The shadow endorsed every resumed proposal: a clean run has no
	// fail-signals at all.
	if fs := cluster.Harness().Events.FailSignals(); len(fs) != 0 {
		t.Fatalf("restarted primary was refused by its shadow: %+v", fs)
	}
	// And the resumed counter moved strictly forward of the pre-kill
	// snapshot — the restarted incarnation never rewound into sequence
	// numbers its dead predecessor had already used.
	post, ok := cluster.OrderState(primary)
	if !ok {
		t.Fatalf("no order state for restarted primary %v", primary)
	}
	if post.NextPropose <= pre.NextPropose {
		t.Fatalf("proposal counter did not advance across restart: pre=%d post=%d",
			pre.NextPropose, post.NextPropose)
	}
}

// TestPublicAPIPrimaryRestartRefusedWithoutJournal is the sensitivity
// twin: the identical scenario with protocol checkpoints (and thus the
// proposal journal and pair-assisted resume) disabled restarts the
// primary at sequence one. Its first post-restart proposal reuses a
// sequence number the shadow has already endorsed for different content,
// and the shadow refuses it with a fail-signal — proving the clean
// resume above comes from the journalled counter, and that a shadow
// never lets a recovered primary reuse a sequence.
func TestPublicAPIPrimaryRestartRefusedWithoutJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:           sof.SC,
		F:                  1,
		Transport:          sof.TCP,
		AuthFrames:         true,
		SessionResume:      true,
		Durable:            true,
		DataDir:            t.TempDir(),
		CheckpointInterval: -1,
		BatchInterval:      10 * time.Millisecond,
		Delta:              30 * time.Second,
		MaxInflightBatches: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	primaryRestartScenario(t, cluster)

	// Drive the restarted primary into proposing: the submission reaches
	// it, it proposes from sequence one, and the shadow must refuse.
	id, err := cluster.Submit([]byte("post-restart"))
	if err != nil {
		t.Fatal(err)
	}
	h := cluster.Harness()
	// The refusal surfaces when the shadow's order expectation runs out,
	// Delta (30 s) after the request reached it, so the deadline must sit
	// clear of Delta rather than on it.
	deadline := time.Now().Add(45 * time.Second)
	for {
		refused := false
		for _, ev := range h.Events.FailSignals() {
			if ev.Emitter && ev.Pair == 1 {
				refused = true
			}
		}
		if refused {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shadow never refused the restarted primary's reused sequence (no fail-signal)")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Fail-over, not the amnesiac primary, is what keeps the service
	// available afterwards.
	if err := cluster.AwaitCommit(id, 30*time.Second); err != nil {
		t.Fatalf("request never committed after the refused primary was deposed: %v", err)
	}
}

// TestPublicAPIIngressValidation pins the config gates for the
// admission layer and TLS.
func TestPublicAPIIngressValidation(t *testing.T) {
	if _, err := sof.NewCluster(sof.Config{
		Protocol: sof.BFT, Simulated: true,
		Ingress: sof.IngressConfig{Enabled: true},
	}); err == nil {
		t.Error("Ingress on BFT accepted")
	}
	if _, err := sof.NewCluster(sof.Config{
		Protocol: sof.SC, Simulated: true,
		Ingress: sof.IngressConfig{Enabled: true, BrownoutHigh: 2, BrownoutLow: 3},
	}); err == nil {
		t.Error("inverted brownout watermarks accepted")
	}
	if _, err := sof.NewCluster(sof.Config{Protocol: sof.SC, ClientTLS: true}); err == nil {
		t.Error("ClientTLS without Transport TCP accepted")
	}
}

// TestPublicAPIIngressRateLimit drives the public path past a tiny rate
// quota on the simulator: the surplus never commits, the quota share
// does.
func TestPublicAPIIngressRateLimit(t *testing.T) {
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:      sof.SC,
		Simulated:     true,
		BatchInterval: 10 * time.Millisecond,
		Ingress:       sof.IngressConfig{Enabled: true, Rate: 3, RatePeriod: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()
	ids := make([]sof.ReqID, 0, 10)
	for i := 0; i < 10; i++ {
		id, err := cluster.Submit([]byte(fmt.Sprintf("burst-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		cluster.RunFor(5 * time.Millisecond)
	}
	cluster.RunFor(2 * time.Second)
	committed := 0
	for _, id := range ids {
		if cluster.AwaitCommit(id, 10*time.Millisecond) == nil {
			committed++
		}
	}
	if committed == 0 || committed > 3 {
		t.Errorf("committed %d of 10 with a quota of 3 per second", committed)
	}
}

// TestPublicAPIClientTLS orders a request end-to-end over the TLS'd TCP
// substrate through the public API.
func TestPublicAPIClientTLS(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:      sof.SC,
		F:             1,
		BatchInterval: 5 * time.Millisecond,
		Transport:     sof.TCP,
		ClientTLS:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()
	id, err := cluster.Submit([]byte("hello over tls"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.AwaitCommit(id, 20*time.Second); err != nil {
		t.Fatal(err)
	}
}
