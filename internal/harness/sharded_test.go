package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/shard"
	"github.com/sof-repro/sof/internal/types"
	"github.com/sof-repro/sof/internal/wal/protolog"
)

// TestShardedClusterValidation pins the Groups configuration surface:
// sharding exists only for live TCP SC/SCR clusters, within the cap.
func TestShardedClusterValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ok   bool
	}{
		{"default-one-group", Options{Protocol: types.SC, F: 1}, true},
		{"negative", Options{Protocol: types.SC, F: 1, Groups: -1}, false},
		{"over-cap", Options{Protocol: types.SC, F: 1, Groups: shard.MaxGroups + 1,
			Live: true, Transport: types.TransportTCP}, false},
		{"simulated", Options{Protocol: types.SC, F: 1, Groups: 2}, false},
		{"live-in-process", Options{Protocol: types.SC, F: 1, Groups: 2, Live: true}, false},
		{"bft", Options{Protocol: types.BFT, F: 1, Groups: 2,
			Live: true, Transport: types.TransportTCP}, false},
		{"ct", Options{Protocol: types.CT, F: 1, Groups: 2,
			Live: true, Transport: types.TransportTCP}, false},
		{"sc-tcp", Options{Protocol: types.SC, F: 1, Groups: 2,
			Live: true, Transport: types.TransportTCP}, true},
		{"scr-tcp", Options{Protocol: types.SCR, F: 1, Groups: 4,
			Live: true, Transport: types.TransportTCP}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.opts)
			if tc.ok && err != nil {
				t.Fatalf("New: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("New accepted an invalid Groups configuration")
			}
			if c != nil {
				c.Stop()
			}
		})
	}
}

// TestShardedGroupTopologiesRotate: each group's coordinator pair must sit
// on different physical nodes than its neighbours' (that is the point of
// rotating), while every group spans the same physical process set.
func TestShardedGroupTopologiesRotate(t *testing.T) {
	c, err := New(Options{
		Protocol: types.SC, F: 1, Groups: 3,
		Live: true, Transport: types.TransportTCP,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if c.GroupCount() != 3 {
		t.Fatalf("GroupCount = %d, want 3", c.GroupCount())
	}
	primaries := make(map[types.NodeID]int)
	for g := 0; g < 3; g++ {
		topo, err := c.GroupTopo(g)
		if err != nil {
			t.Fatal(err)
		}
		p, _, paired, err := topo.Candidate(1)
		if err != nil || !paired {
			t.Fatalf("group %d candidate 1: paired=%v err=%v", g, paired, err)
		}
		if prev, dup := primaries[p]; dup {
			t.Errorf("groups %d and %d share primary %v", prev, g, p)
		}
		primaries[p] = g
	}
	topo0, _ := c.GroupTopo(0)
	if topo0 != c.Topo {
		t.Errorf("GroupTopo(0) = %+v, want the cluster topology %+v", topo0, c.Topo)
	}
	if _, err := c.GroupTopo(3); err == nil {
		t.Error("GroupTopo accepted an out-of-range group")
	}
}

// TestShardedClusterCommitsPerGroup is the end-to-end tentpole check at
// the harness layer: two groups on one physical 4-node cluster, requests
// submitted into each group commit in that group's recorder and ONLY
// there, and per-group order state is addressable.
func TestShardedClusterCommitsPerGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP integration test")
	}
	c, err := New(Options{
		Protocol: types.SC, F: 1, Groups: 2,
		BatchInterval: 5 * time.Millisecond,
		Live:          true, Transport: types.TransportTCP,
		KeepCommits: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	const perGroup = 5
	for i := 0; i < perGroup; i++ {
		rid0, err := c.SubmitToGroup(0, 0, []byte(fmt.Sprintf("g0-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rid1, err := c.SubmitToGroup(0, 1, []byte(fmt.Sprintf("g1-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		c.AwaitCommit(20*time.Second, rid0, rid1)
		if !c.RecorderOf(0).Committed(rid0) || !c.RecorderOf(1).Committed(rid1) {
			t.Fatalf("round %d: g0 committed=%v g1 committed=%v", i,
				c.RecorderOf(0).Committed(rid0), c.RecorderOf(1).Committed(rid1))
		}
		// Request IDs come from one shared counter: no collision between
		// the two groups' submissions.
		if rid0 == rid1 {
			t.Fatalf("round %d: duplicate ReqID %v across groups", i, rid0)
		}
		// Cross-recorder isolation: a request ordered by group 0 must be
		// unknown to group 1's recorder and vice versa.
		if c.RecorderOf(1).Committed(rid0) || c.RecorderOf(0).Committed(rid1) {
			t.Fatalf("round %d: commit leaked across group recorders", i)
		}
	}

	// Per-group order state: each group's primary advanced its own
	// proposal counter.
	for g := 0; g < 2; g++ {
		topo, _ := c.GroupTopo(g)
		primary, _, _, _ := topo.Candidate(1)
		st, ok := c.OrderStateOfGroup(primary, g)
		if !ok {
			t.Fatalf("group %d: no order state at primary %v", g, primary)
		}
		if st.DeliveredUpTo == 0 {
			t.Errorf("group %d primary %v delivered nothing", g, primary)
		}
	}
}

// TestShardedProtologDirsDisjoint is the WAL-layout regression test: two
// groups hosted on one node must open two distinct checkpoint stores in
// two distinct directories, concurrently — a shared segment directory
// would interleave (or lock out) their WAL records.
func TestShardedProtologDirsDisjoint(t *testing.T) {
	c, err := New(Options{
		Protocol: types.SC, F: 1, Groups: 2,
		Live: true, Transport: types.TransportTCP,
		Durable: true, DataDir: t.TempDir(), KeepCommits: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	// New built every group's process, so both stores are already open:
	// each group of node 0 must own its own directory under the node's
	// data dir (sofnode's <data-dir>/g<i>/proto), and the single-group
	// path must not exist beside them.
	dir := c.NodeSpec(0).DataDir
	for g := 0; g < 2; g++ {
		if !isDir(filepath.Join(dir, fmt.Sprintf("g%d", g), "proto")) {
			t.Errorf("group %d has no protolog dir of its own under %s", g, dir)
		}
	}
	if isDir(filepath.Join(dir, "proto")) {
		t.Errorf("sharded node also opened the single-group protolog dir %s/proto", dir)
	}
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// TestUnshardedProtologLayoutUnchanged pins the pre-sharding on-disk
// layout for single-group clusters: no g0/ indirection appears, so
// existing deployments restart against their old directories.
func TestUnshardedProtologLayoutUnchanged(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{
		Protocol: types.SC, F: 1,
		Live: true, Transport: types.TransportTCP,
		Durable: true, DataDir: dir, KeepCommits: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if want := filepath.Join(dir, "node-0", "proto"); !isDir(want) {
		t.Errorf("single-group protolog dir %q was not opened", want)
	}
	if isDir(filepath.Join(dir, "node-0", "g0")) {
		t.Error("single-group cluster grew a g0/ directory")
	}
	if isDir(filepath.Join(dir, "commits")) {
		t.Error("the cluster created a commit stream directory; the recorder keeps nothing on disk")
	}
}

// Opening the two stores of one node from scratch, concurrently, must
// succeed — the disjoint-directory guarantee exercised at the protolog
// layer itself rather than through the cluster assembly path.
func TestConcurrentProtologOpensPerGroup(t *testing.T) {
	base := t.TempDir()
	type res struct {
		st  *protolog.Store
		err error
	}
	results := make(chan res, 2)
	for g := 0; g < 2; g++ {
		dir := fmt.Sprintf("%s/node-0/g%d/proto", base, g)
		go func() {
			st, err := protolog.Open(protolog.Options{Dir: dir})
			results <- res{st, err}
		}()
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("concurrent open: %v", r.err)
		}
		defer r.st.Close()
	}
}
