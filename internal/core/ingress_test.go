package core_test

import (
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/harness"
	"github.com/sof-repro/sof/internal/ingress"
)

// TestEvictSweepAdvancesOnActingPrimary pins the eviction sweep on the
// one role that never drops: the acting primary must still consume the
// stamps of requests it has ordered. If it does not, its timer re-arms
// from the same expired head stamp every tick — a spin for as long as it
// leads — and its stamp log grows by one entry per admitted request.
func TestEvictSweepAdvancesOnActingPrimary(t *testing.T) {
	const evictAfter = 30 * time.Second
	c := simCluster(t, func(o *harness.Options) {
		o.F = 1
		o.MaxInflightBatches = 8
		o.DigestOnlyAcks = true
		o.MaxBatchBytes = 32 << 10
		o.Ingress = ingress.Config{Enabled: true, Rate: -1, BrownoutHigh: -1, EvictAfter: evictAfter}
	})
	primary, _, _, err := c.Topo.Candidate(1)
	if err != nil {
		t.Fatalf("Candidate(1): %v", err)
	}
	submitN(t, c, 3, 100)
	c.RunFor(evictAfter + time.Second) // every stamp has expired and been swept
	assertTotalOrder(t, c, 4, 3)
	before := c.Scheduler().Steps()
	c.RunFor(5 * time.Second)
	if steps := c.Scheduler().Steps() - before; steps >= 50 {
		t.Errorf("idle cluster took %d scheduler steps in 5 s after EvictAfter, want < 50 (evict timer spin)", steps)
	}

	// The simulated LAN charges ~0.5 ms of CPU per received message, so
	// the load is paced at 400 requests/s into large batches.
	const n = 10_000
	for i := 0; i < n/100; i++ {
		burstN(t, c, 100, 100)
		c.RunFor(250 * time.Millisecond)
	}
	c.RunFor(time.Second)
	assertTotalOrder(t, c, 4, 3+n)
	c.RunFor(evictAfter + time.Second)
	if got := c.SCProcess(primary).EvictBacklog(); got > 16 {
		t.Errorf("primary still holds %d admission stamps one EvictAfter after ordering everything, want ~0", got)
	}
	for _, id := range c.Topo.AllProcesses() {
		if got := c.Metric(id, 0, "sof_ingress_evicted_total"); got != 0 {
			t.Errorf("process %v evicted %v ordered requests; consuming a stamp must not drop", id, got)
		}
	}
}
