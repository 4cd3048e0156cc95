package core_test

import (
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/harness"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/types"
)

// CT, the paper's crash-tolerant baseline, is SC with the pairs removed:
// n = 2f+1 processes, the coordinator p1 multicasts its order directly and
// a batch commits on n-f acks. These tests run it on the core process.

// ctCluster builds a virtual-time CT cluster at f = 2 (n = 5) without
// cryptography, as the paper runs CT.
func ctCluster(t *testing.T, mutate func(*harness.Options)) *harness.Cluster {
	t.Helper()
	return simCluster(t, func(o *harness.Options) {
		o.Protocol, o.Suite, o.Mirror = types.CT, crypto.NoneSuite, false
		if mutate != nil {
			mutate(o)
		}
	})
}

// TestCTFailFreeOrdering: all 2f+1 processes deliver the same 15 entries
// in the same order, and nobody fail-signals.
func TestCTFailFreeOrdering(t *testing.T) {
	c := ctCluster(t, nil)
	submitN(t, c, 15, 100)
	c.RunFor(500 * time.Millisecond)
	if longest := assertTotalOrder(t, c, c.Topo.N(), 15); len(longest) != 15 {
		t.Errorf("delivered %d entries, want exactly 15", len(longest))
	}
	if s := c.Events.LatencySummary(); s.Count == 0 {
		t.Error("no latency samples")
	}
	if fs := c.Events.FailSignals(); len(fs) != 0 {
		t.Errorf("CT run emitted fail-signals: %+v", fs)
	}
}

// TestCTTopologyHasNoShadows: n = 2f+1 with no shadows, so no process is
// paired and p1 stays the coordinator.
func TestCTTopologyHasNoShadows(t *testing.T) {
	c := ctCluster(t, nil)
	if c.Topo.N() != 5 || c.Topo.NumShadows() != 0 {
		t.Errorf("CT topology: n=%d shadows=%d, want 5/0", c.Topo.N(), c.Topo.NumShadows())
	}
	for _, id := range c.Topo.AllProcesses() {
		if p := c.SCProcess(id); p == nil || p.Pair() != nil || p.Rank() != 1 {
			t.Errorf("process %v: %+v, want an unpaired core process at rank 1", id, p)
		}
	}
}

// TestCTCommitsWithFProcessesIsolated: the quorum is n-f = f+1 = 3 of 5,
// so with f processes cut off the other three still commit everything.
func TestCTCommitsWithFProcessesIsolated(t *testing.T) {
	c := ctCluster(t, nil)
	n4, _ := c.Topo.ReplicaID(4)
	n5, _ := c.Topo.ReplicaID(5)
	c.Fabric.Isolate(n4)
	c.Fabric.Isolate(n5)
	submitN(t, c, 5, 64)
	c.RunFor(500 * time.Millisecond)
	seqs := commitsAt(c)
	for _, id := range c.Topo.AllProcesses() {
		if id == n4 || id == n5 {
			continue
		}
		if got := len(seqs[id]); got != 5 {
			t.Errorf("process %v delivered %d entries with f processes isolated, want 5", id, got)
		}
	}
}

// TestNewRefusesBFTTopology: BFT has an order process of its own.
func TestNewRefusesBFTTopology(t *testing.T) {
	for _, proto := range []types.Protocol{types.SC, types.SCR, types.CT, types.BFT} {
		topo, err := types.NewTopology(proto, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, err = core.New(0, core.Config{Topo: topo, Knobs: core.Knobs{}.WithDefaults()})
		if (err != nil) != (proto == types.BFT) {
			t.Errorf("%v: core.New error %v", proto, err)
		}
	}
}

// TestCTPipelinedCommitsEveryRequest: a CT cluster with the proposal window
// open commits every offered request at every process, acking by digest
// alone. The requests are large enough (two fill a batch) that a batch
// fills while the one before it is in flight, so the window opens.
func TestCTPipelinedCommitsEveryRequest(t *testing.T) {
	topo, err := types.NewTopology(types.CT, 1)
	if err != nil {
		t.Fatal(err)
	}
	watched, _ := topo.ReplicaID(2)
	tap := &ackSubjects{}
	s := newResumeSim(t, simOpts{proto: types.CT, f: 1, window: 8, payload: 450, net: netsim.LANDefaults(), seed: 1,
		taps: map[types.NodeID]core.Tap{watched: tap}})
	s.submitEvery(time.Millisecond, 300*time.Millisecond)
	s.sched.RunFor(time.Second)
	s.assertAllCommitted()
	if len(s.sent) < 250 {
		t.Fatalf("offered %d requests, want about 300", len(s.sent))
	}
	if len(tap.lens) == 0 {
		t.Fatalf("process %v sent no acks", watched)
	}
	for _, n := range tap.lens {
		if n > 0 {
			t.Fatalf("a pipelined CT ack carried a %d-byte subject", n)
		}
	}
	var maxInflight int
	for _, b := range s.batches {
		maxInflight = max(maxInflight, b.ev.Inflight)
	}
	if maxInflight < 2 {
		t.Errorf("at most %d batch in flight; the window never opened", maxInflight)
	}
}
