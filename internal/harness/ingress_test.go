package harness

import (
	"fmt"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/types"
)

// sumShed totals the shed counters across every order process of group 0.
func sumShed(c *Cluster) uint64 {
	var total uint64
	for _, id := range c.Topo.AllProcesses() {
		total += uint64(c.Metric(id, 0, "sof_ingress_shed_total"))
	}
	return total
}

// TestIngressRateLimitShedsFlood drives a greedy client past its rate
// quota on the virtual-time simulator: the surplus is shed at admission
// (never ordered), the client hears about it through a Rejected reply,
// and a polite client's traffic is untouched.
func TestIngressRateLimitShedsFlood(t *testing.T) { rateLimitShedsFlood(t, types.SC) }

// TestIngressCTShedsFlood: the same under CT, whose order processes are
// core processes with the same admission pipeline.
func TestIngressCTShedsFlood(t *testing.T) { rateLimitShedsFlood(t, types.CT) }

func rateLimitShedsFlood(t *testing.T, proto types.Protocol) {
	c, err := New(Options{
		Protocol:   proto,
		Net:        netsim.LANDefaults(),
		NumClients: 2,
		Ingress: ingress.Config{
			Enabled:    true,
			Rate:       5,
			RatePeriod: time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()

	// Greedy: 20 submissions inside one rate period — 5 admitted, 15 shed.
	greedy := make([]message.ReqID, 0, 20)
	for i := 0; i < 20; i++ {
		id, err := c.Submit(0, []byte(fmt.Sprintf("greedy-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		greedy = append(greedy, id)
		c.RunFor(10 * time.Millisecond)
	}
	// Polite: 3 submissions, well under quota.
	polite := make([]message.ReqID, 0, 3)
	for i := 0; i < 3; i++ {
		id, err := c.Submit(1, []byte(fmt.Sprintf("polite-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		polite = append(polite, id)
		c.RunFor(10 * time.Millisecond)
	}
	c.RunFor(2 * time.Second)

	for _, id := range polite {
		if !c.Events.Committed(id) {
			t.Errorf("polite request %v never committed", id)
		}
	}
	committed := 0
	for _, id := range greedy {
		if c.Events.Committed(id) {
			committed++
		}
	}
	if committed == 0 || committed > 5 {
		t.Errorf("greedy client committed %d of 20 with a quota of 5", committed)
	}
	if shed := sumShed(c); shed == 0 {
		t.Error("no requests shed at admission")
	}
	if c.RejectedCount(0) == 0 {
		t.Error("greedy client never received a Rejected reply")
	}
	if c.RejectedCount(1) != 0 {
		t.Errorf("polite client received %d Rejected replies", c.RejectedCount(1))
	}
	// After the period rolls over the greedy client is admitted again.
	id, err := c.Submit(0, []byte("greedy-after-cooldown"))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	if !c.Events.Committed(id) {
		t.Error("greedy request after the rate period never committed")
	}
}

// TestIngressGenerousLimitsShedNothing checks the enabled-but-unloaded
// path: with quotas far above the offered load every request commits,
// nothing is shed, and no Rejected replies flow — admission control is
// invisible until it is needed.
func TestIngressGenerousLimitsShedNothing(t *testing.T) {
	c, err := New(Options{
		Protocol:   types.SC,
		Net:        netsim.LANDefaults(),
		NumClients: 2,
		Ingress: ingress.Config{
			Enabled:    true,
			Rate:       10_000,
			RatePeriod: time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	ids := make([]message.ReqID, 0, 40)
	for i := 0; i < 20; i++ {
		for k := 0; k < 2; k++ {
			id, err := c.Submit(k, []byte(fmt.Sprintf("c%d-%d", k, i)))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		c.RunFor(20 * time.Millisecond)
	}
	c.RunFor(2 * time.Second)
	for _, id := range ids {
		if !c.Events.Committed(id) {
			t.Errorf("request %v never committed under generous limits", id)
		}
	}
	if shed := sumShed(c); shed != 0 {
		t.Errorf("%d requests shed under generous limits", shed)
	}
	if got := c.RejectedCount(0) + c.RejectedCount(1); got != 0 {
		t.Errorf("%d Rejected replies under generous limits", got)
	}
}

// TestIngressBrownoutRisesAndClears forces pool pressure past the
// brownout watermark with a paused batch drain, then lets the cluster
// drain and checks the gauge clears. Virtual-time simulator, so the
// pressure window is exact.
func TestIngressBrownoutRisesAndClears(t *testing.T) {
	c, err := New(Options{
		Protocol: types.SC,
		// One batch per second and tiny batches: the pool backlog grows
		// much faster than it drains.
		BatchInterval: time.Second,
		MaxBatchBytes: 256,
		NumClients:    2,
		Net:           netsim.LANDefaults(),
		Ingress: ingress.Config{
			Enabled:      true,
			Rate:         100_000,
			RatePeriod:   time.Second,
			BrownoutHigh: 4,
			BrownoutLow:  1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	// Flood: client 0 pushes ~100x the per-batch capacity into the pool.
	for i := 0; i < 100; i++ {
		if _, err := c.Submit(0, make([]byte, 256)); err != nil {
			t.Fatal(err)
		}
		c.RunFor(time.Millisecond)
	}
	coord := c.Topo.AllProcesses()[0]
	brownout := func() float64 { return c.Metric(coord, 0, "sof_ingress_brownout") }
	if brownout() == 0 {
		t.Fatalf("brownout gauge still 0 with ~100 batches of backlog")
	}
	// In brownout an over-share client is shed; a polite client with no
	// backlog is not over fair share and stays admitted.
	if _, err := c.Submit(1, []byte("polite-during-brownout")); err != nil {
		t.Fatal(err)
	}
	c.RunFor(50 * time.Millisecond)
	if c.RejectedCount(1) != 0 {
		t.Error("polite client shed during brownout despite being under fair share")
	}
	// Drain: stop submitting and let batches flow until pressure drops.
	c.RunFor(200 * time.Second)
	if brownout() != 0 {
		t.Error("brownout gauge never cleared after the backlog drained")
	}
}

// TestIngressLockoutBlocksRepeatOffender checks the failure-lockout arm:
// a client shed past the threshold is locked out for the lockout period
// (refusals now count against the lockout, not the rate book), then
// readmitted after it expires.
func TestIngressLockoutBlocksRepeatOffender(t *testing.T) {
	c, err := New(Options{
		Protocol:   types.SC,
		Net:        netsim.LANDefaults(),
		NumClients: 1,
		Ingress: ingress.Config{
			Enabled:          true,
			Rate:             2,
			RatePeriod:       time.Second,
			LockoutThreshold: 3,
			LockoutPeriod:    5 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for i := 0; i < 10; i++ {
		if _, err := c.Submit(0, []byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
		c.RunFor(5 * time.Millisecond)
	}
	c.RunFor(100 * time.Millisecond)
	var locked uint64
	for _, id := range c.Topo.AllProcesses() {
		locked += uint64(c.Metric(id, 0, "sof_ingress_locked_out_total"))
	}
	if locked == 0 {
		t.Error("no lockout refusals after 8 rejections against a threshold of 3")
	}
	// After the lockout expires (and a fresh rate period) submissions
	// are admitted again.
	c.RunFor(6 * time.Second)
	id, err := c.Submit(0, []byte("after-lockout"))
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Second)
	if !c.Events.Committed(id) {
		t.Error("request after lockout expiry never committed")
	}
}

// TestIngressDisabledNoRejects pins the compatibility contract: with the
// zero-value Ingress config the admission path is inert — no shed
// counters, no Rejected traffic — even under a flood that would trip any
// enabled limiter.
func TestIngressDisabledNoRejects(t *testing.T) {
	c, err := New(Options{
		Protocol:   types.SC,
		Net:        netsim.LANDefaults(),
		NumClients: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	ids := make([]message.ReqID, 0, 50)
	for i := 0; i < 50; i++ {
		id, err := c.Submit(0, []byte(fmt.Sprintf("r%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		c.RunFor(2 * time.Millisecond)
	}
	c.RunFor(3 * time.Second)
	for _, id := range ids {
		if !c.Events.Committed(id) {
			t.Errorf("request %v never committed with ingress disabled", id)
		}
	}
	if shed := sumShed(c); shed != 0 {
		t.Errorf("%d requests shed with ingress disabled", shed)
	}
	if c.RejectedCount(0) != 0 {
		t.Errorf("%d Rejected replies with ingress disabled", c.RejectedCount(0))
	}
}
