package core_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/harness"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/types"
)

// These tests reproduce the two ways a live process used to stop
// delivering for good — it lost the acks for subjects it tracks, or
// nobody but the coordinator ever held the orders — and pin that the gap
// rule's live pull (fetch.go) repairs both: every process delivers
// everything within a second of the heal.

// TestPrimaryCutFromAckersCatchesUp: a pipelined SC primary (f = 2,
// window 8) cut from every acker but its shadow for 200 ms receives none
// of the acks for the batches it proposes meanwhile, and nobody sends an
// ack twice. The ackers commit the batches; the primary's watermark stands
// still behind subjects no ack credits, so it pulls their commits.
func TestPrimaryCutFromAckersCatchesUp(t *testing.T) {
	const clients = 8
	c := simCluster(t, func(o *harness.Options) {
		o.Suite = crypto.HMACSHA256
		o.BatchInterval = 100 * time.Millisecond
		o.MaxInflightBatches = 8
		o.NumClients = clients
	})
	primary, shadow, _, err := c.Topo.Candidate(1)
	if err != nil {
		t.Fatal(err)
	}
	var ackers []types.NodeID
	for _, id := range c.Topo.AllProcesses() {
		if id != primary && id != shadow {
			ackers = append(ackers, id)
			c.Fabric.Cut(primary, id)
		}
	}
	for k := range clients {
		if _, err := c.Submit(k, make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
		c.RunFor(25 * time.Millisecond)
	}
	for _, id := range ackers {
		c.Fabric.Heal(primary, id)
	}
	c.RunFor(time.Second)
	assertTotalOrder(t, c, c.Topo.N(), clients)
	if fs := c.Events.FailSignals(); len(fs) != 0 {
		t.Errorf("lost acks drew fail-signals: %+v", fs)
	}
}

// TestCTCoordinatorCutCatchesUp: a CT coordinator (f = 2, n = 5) cut from
// all four others while eight requests arrive 25 ms apart loses every
// order it proposes meanwhile — nobody else ever held them. After the
// heal eight more requests arrive. With a window of 8 the coordinator's
// window is full of lost orders, so only its own pull, which hands its
// orders to the peer it asks, gets them acked; at window 0 the others
// find the next order ahead of their watermark and pull from the
// coordinator, which re-serves the lost ones.
func TestCTCoordinatorCutCatchesUp(t *testing.T) {
	for _, window := range []int{8, 0} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			c := simCluster(t, func(o *harness.Options) {
				o.Protocol = types.CT
				o.Suite = crypto.HMACSHA256
				o.MaxInflightBatches = window
			})
			coord, _, _, err := c.Topo.Candidate(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range c.Topo.AllProcesses() {
				if id != coord {
					c.Fabric.Cut(coord, id)
				}
			}
			submit := func() {
				for range 8 {
					if _, err := c.Submit(0, make([]byte, 128)); err != nil {
						t.Fatal(err)
					}
					c.RunFor(25 * time.Millisecond)
				}
			}
			submit()
			for _, id := range c.Topo.AllProcesses() {
				c.Fabric.Heal(coord, id)
			}
			healed := c.Now()
			submit()
			c.RunFor(time.Second - c.Now().Sub(healed))
			assertTotalOrder(t, c, c.Topo.N(), 16)
		})
	}
}

// TestCatchUpAnswerSplitsAtByteBound: a process isolated while twelve
// 100 KB requests commit lags by more than one catch-up answer may carry
// (maxCatchUpBytes, 1 MiB). The answer to its pull stops at the bound, and
// the requester, having made progress, asks the same peer for the rest.
// The network is fast and costs no CPU, so the answers' size is all that
// differs from the other tests.
func TestCatchUpAnswerSplitsAtByteBound(t *testing.T) {
	fast := netsim.LinkParams{BaseDelay: 100 * time.Microsecond, BytesPerSec: 1 << 30}
	c := simCluster(t, func(o *harness.Options) {
		o.F = 1
		o.Suite = crypto.HMACSHA256
		o.MaxBatchBytes = 128 << 10
		o.Net = netsim.Params{LAN: fast, Pair: fast}
	})
	victim, err := c.Topo.ReplicaID(c.Topo.NumReplicas())
	if err != nil {
		t.Fatal(err)
	}
	c.Fabric.Isolate(victim)
	for range 12 {
		if _, err := c.Submit(0, make([]byte, 100<<10)); err != nil {
			t.Fatal(err)
		}
		c.RunFor(20 * time.Millisecond)
	}
	c.Fabric.Rejoin(victim)
	if _, err := c.Submit(0, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	assertTotalOrder(t, c, c.Topo.N(), 13)
}
