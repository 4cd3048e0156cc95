package sof_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	sof "github.com/sof-repro/sof"
)

// TestPublicAPIGroupsConfigValidation pins the sharding configuration
// surface: Groups exists only for live TCP SC/SCR clusters, within the
// one-byte group-address cap.
func TestPublicAPIGroupsConfigValidation(t *testing.T) {
	bad := []sof.Config{
		{Protocol: sof.SC, Groups: -1},
		{Protocol: sof.SC, Groups: sof.MaxGroups + 1, Transport: sof.TCP},
		{Protocol: sof.SC, Groups: 2, Simulated: true},
		{Protocol: sof.SC, Groups: 2}, // in-process transport
		{Protocol: sof.BFT, Groups: 2, Transport: sof.TCP},
		{Protocol: sof.CT, Groups: 2, Transport: sof.TCP},
	}
	for i, cfg := range bad {
		if _, err := sof.NewCluster(cfg); err == nil {
			t.Errorf("case %d: invalid Groups config accepted: %+v", i, cfg)
		}
	}
	for _, cfg := range []sof.Config{
		{Protocol: sof.SC, F: 1, Groups: 2, Transport: sof.TCP},
		{Protocol: sof.SCR, F: 1, Groups: 4, Transport: sof.TCP},
		{Protocol: sof.SC, F: 1, Groups: 1}, // explicit single group, any substrate
	} {
		c, err := sof.NewCluster(cfg)
		if err != nil {
			t.Errorf("valid Groups config rejected (%+v): %v", cfg, err)
			continue
		}
		if got, want := c.Groups(), cfg.Groups; got != want {
			t.Errorf("Groups() = %d, want %d", got, want)
		}
		c.Stop()
	}
}

// TestPublicAPIShardedKVRouting is the tentpole acceptance at the public
// API: a 4-group KV cluster routes every operation on one key to one
// group, commits and executes it there, and serves results — while
// operations on keys of different groups are rejected as one multi-key
// submission but fine individually.
func TestPublicAPIShardedKVRouting(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:      sof.SC,
		F:             1,
		Groups:        4,
		Transport:     sof.TCP,
		BatchInterval: 5 * time.Millisecond,
		StateMachine:  sof.NewKVStore,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()

	// Spread writes over enough keys to hit several groups, then read
	// each key back through its own group.
	groupsHit := make(map[int]bool)
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("user-%d", i)
		set := sof.EncodeKV(sof.KVSet, key, fmt.Sprintf("v%d", i))
		get := sof.EncodeKV(sof.KVGet, key, "")
		if g1, g2 := cluster.GroupOf(set), cluster.GroupOf(get); g1 != g2 {
			t.Fatalf("key %q: set routes to group %d, get to %d", key, g1, g2)
		}
		groupsHit[cluster.GroupOf(set)] = true
		sid, err := cluster.Submit(set)
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.AwaitCommit(sid, 20*time.Second); err != nil {
			t.Fatalf("set %q: %v", key, err)
		}
		gid, err := cluster.Submit(get)
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.AwaitCommit(gid, 20*time.Second); err != nil {
			t.Fatalf("get %q: %v", key, err)
		}
		// A real client needs f+1 matching replies; with f=1, two replicas
		// must agree on the read. AwaitCommit returns on the FIRST commit,
		// so give the remaining replicas a moment to execute.
		want := fmt.Sprintf("v%d", i)
		deadline := time.Now().Add(10 * time.Second)
		for {
			matching := 0
			for _, res := range cluster.Results(gid) {
				if string(res) == want {
					matching++
				}
			}
			if matching >= 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("get %q: %d matching results, want >= f+1 = 2 (all: %v)",
					key, matching, cluster.Results(gid))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if len(groupsHit) < 2 {
		t.Fatalf("12 keys landed in %d group(s); routing looks degenerate", len(groupsHit))
	}

	// Multi-key submissions: same-group pairs pass, cross-group pairs are
	// rejected with the typed error and nothing is submitted.
	keyA := "multi-a"
	payloadA := sof.EncodeKV(sof.KVSet, keyA, "x")
	var sameKey, crossKey string
	for i := 0; ; i++ {
		k := fmt.Sprintf("multi-b-%d", i)
		if cluster.GroupOf(sof.EncodeKV(sof.KVSet, k, "x")) == cluster.GroupOf(payloadA) {
			if sameKey == "" {
				sameKey = k
			}
		} else if crossKey == "" {
			crossKey = k
		}
		if sameKey != "" && crossKey != "" {
			break
		}
	}
	ids, err := cluster.SubmitMulti(payloadA, sof.EncodeKV(sof.KVSet, sameKey, "y"))
	if err != nil {
		t.Fatalf("same-group SubmitMulti rejected: %v", err)
	}
	for _, id := range ids {
		if err := cluster.AwaitCommit(id, 20*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	_, err = cluster.SubmitMulti(payloadA, sof.EncodeKV(sof.KVSet, crossKey, "y"))
	if err == nil {
		t.Fatal("cross-group SubmitMulti accepted")
	}
	var cge *sof.CrossGroupError
	if !errors.As(err, &cge) {
		t.Fatalf("cross-group rejection is not a *CrossGroupError: %T %v", err, err)
	}
	if cge.GroupA == cge.GroupB {
		t.Errorf("CrossGroupError names one group twice: %+v", cge)
	}
}

// TestPublicAPIShardedAwaitCommitWithoutRoutes: a sharded AwaitCommit
// keeps no record of where requests were routed — it waits on every
// group's recorder at once — so a request that never passed through
// Submit (sent straight into its group through the harness) is awaited
// like any other, in every group, and an ID nobody submitted times out.
func TestPublicAPIShardedAwaitCommitWithoutRoutes(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:      sof.SC,
		F:             1,
		Groups:        2,
		Transport:     sof.TCP,
		BatchInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	defer cluster.Stop()
	var last sof.ReqID
	for g := 0; g < cluster.Groups(); g++ {
		payload := []byte("k0")
		for i := 1; cluster.GroupOf(payload) != g; i++ {
			payload = []byte(fmt.Sprintf("k%d", i))
		}
		id, err := cluster.Harness().SubmitToGroup(0, g, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.AwaitCommit(id, 20*time.Second); err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		last = id
	}
	bogus := sof.ReqID{Client: last.Client, ClientSeq: last.ClientSeq + 1<<40}
	if err := cluster.AwaitCommit(bogus, 50*time.Millisecond); err == nil {
		t.Error("AwaitCommit accepted a request nobody submitted")
	}
}

// TestPublicAPISharded2GroupKillRestartZeroLoss is the 2-group variant of
// the durable kill/restart acceptance test: requests journalled by the
// killed client incarnation — routed across BOTH groups — are replayed by
// its successor and commit everywhere, each in its home group.
func TestPublicAPISharded2GroupKillRestartZeroLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	cluster, err := sof.NewCluster(sof.Config{
		Protocol:      sof.SC,
		F:             1,
		Groups:        2,
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
	// at-risk request must now commit in its home group.
	for i, id := range atRisk {
		if err := cluster.AwaitCommit(id, 30*time.Second); err != nil {
			t.Fatalf("request %d from the dead incarnation's unacked window lost: %v", i, err)
		}
	}
	// Zero loss means every order process eventually commits every
	// request; in a sharded cluster a node's commits split across its
	// per-group recorders, so the bound applies to the sum.
	h := cluster.Harness()
	deadline := time.Now().Add(15 * time.Second)
	for {
		lagging := ""
		for _, node := range h.Topo.AllProcesses() {
			n := 0
			for g := 0; g < cluster.Groups(); g++ {
				n += h.RecorderOf(g).CommittedEntries(node)
			}
			if n < total {
				lagging = fmt.Sprintf("process %v committed %d/%d entries across groups", node, n, total)
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
