package ingress

import (
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/types"
)

var t0 = time.Unix(1_000_000, 0)

// TestMemStorePeriods pins the in-memory period the controller keeps per
// client for its rate and failure counts: a period starts at the first
// touch, each touch reports the count and the remainder, a touch at or
// after the end restarts the count, and a cleared period restarts at the
// next touch however much of the old window is left.
func TestMemStorePeriods(t *testing.T) {
	var p period
	if n, reset := p.incr(t0, time.Second); n != 1 || reset != time.Second {
		t.Fatalf("first incr = (%d, %v), want (1, 1s)", n, reset)
	}
	if n, reset := p.incr(t0.Add(300*time.Millisecond), time.Second); n != 2 || reset != 700*time.Millisecond {
		t.Fatalf("second incr = (%d, %v), want (2, 700ms)", n, reset)
	}
	if n, reset := p.incr(t0.Add(999*time.Millisecond), time.Second); n != 3 || reset != time.Millisecond {
		t.Fatalf("incr 1ms before the end = (%d, %v), want (3, 1ms)", n, reset)
	}
	// The period expires at its end: the counter restarts there.
	if n, reset := p.incr(t0.Add(time.Second), time.Second); n != 1 || reset != time.Second {
		t.Fatalf("incr at the end = (%d, %v), want (1, 1s)", n, reset)
	}
	if n, _ := p.incr(t0.Add(10*time.Second), time.Second); n != 1 {
		t.Fatalf("post-expiry incr = %d, want 1", n)
	}
	p.incr(t0.Add(10*time.Second), time.Second)
	// Cleared (as an admission clears the failure count): a fresh period
	// starts at the next touch, not at the old window's end.
	p = period{}
	if n, reset := p.incr(t0.Add(10500*time.Millisecond), time.Second); n != 1 || reset != time.Second {
		t.Fatalf("incr after clearing = (%d, %v), want (1, 1s)", n, reset)
	}
}

// TestPeriodLimitQuota pins the per-client rate limiter: Rate admissions
// per RatePeriod, the period running from the client's first request —
// its remainder is the RetryAfter hint — and restarting lazily at the
// first request at or after its end. Clients count apart, and the
// controller keeps state for the clients it has seen, no more.
func TestPeriodLimitQuota(t *testing.T) {
	c := NewController(Config{Enabled: true, Rate: 3, RatePeriod: time.Second})
	pr := Pressure{BatchBytes: 1024}
	for i := 0; i < 3; i++ {
		if d := c.Admit(0, t0.Add(time.Duration(i)*100*time.Millisecond), pr); !d.Admit {
			t.Fatalf("request %d rejected within quota: %v", i, d.Code)
		}
	}
	d := c.Admit(0, t0.Add(300*time.Millisecond), pr)
	if d.Admit || d.Code != RateLimited || d.RetryAfter != 700*time.Millisecond {
		t.Fatalf("over-quota decision = %+v, want RateLimited retrying after 700ms", d)
	}
	if d := c.Admit(1, t0.Add(300*time.Millisecond), pr); !d.Admit {
		t.Fatalf("independent client rejected: %v", d.Code)
	}
	// The period still runs a millisecond before its end, and is over at
	// its end: a fresh one starts at that request.
	if d := c.Admit(0, t0.Add(999*time.Millisecond), pr); d.Admit || d.RetryAfter != time.Millisecond {
		t.Fatalf("decision 1ms before the period ends = %+v", d)
	}
	if d := c.Admit(0, t0.Add(time.Second), pr); !d.Admit {
		t.Fatalf("request after the period ended rejected: %v", d.Code)
	}
	for i := 0; i < 2; i++ {
		if d := c.Admit(0, t0.Add(1500*time.Millisecond), pr); !d.Admit {
			t.Fatalf("request %d of the fresh period rejected: %v", i, d.Code)
		}
	}
	if d := c.Admit(0, t0.Add(1500*time.Millisecond), pr); d.Admit || d.RetryAfter != 500*time.Millisecond {
		t.Fatalf("over-quota decision in the fresh period = %+v, want a 500ms retry", d)
	}
	if len(c.clients) != 2 {
		t.Fatalf("controller holds state for %d clients, saw 2", len(c.clients))
	}
}

// TestPeriodFailureLimitLockout pins the lockout: a client whose
// rejections within LockoutPeriod reach LockoutThreshold is refused
// everything until the failure period, started by the first of them,
// ends; an admission below the threshold forgives earlier rejections.
func TestPeriodFailureLimitLockout(t *testing.T) {
	c := NewController(Config{
		Enabled: true, Rate: -1, MaxClientPending: 1,
		LockoutThreshold: 3, LockoutPeriod: time.Second,
	})
	full := Pressure{BatchBytes: 1024, ClientPending: 1} // at the pending cap: refused
	free := Pressure{BatchBytes: 1024}
	refuse := func(at time.Duration, want Code) Decision {
		t.Helper()
		d := c.Admit(0, t0.Add(at), full)
		if d.Admit || d.Code != want {
			t.Fatalf("decision at %v = %+v, want %v", at, d, want)
		}
		return d
	}
	refuse(0, InflightCap)
	refuse(0, InflightCap)
	if d := c.Admit(0, t0, free); !d.Admit {
		t.Fatalf("locked below threshold: %v", d.Code)
	}
	// The admission forgave the two rejections: two more stay below it.
	refuse(0, InflightCap)
	refuse(0, InflightCap)
	if d := refuse(time.Millisecond, LockedOut); d.RetryAfter != 999*time.Millisecond {
		t.Fatalf("threshold rejection retries after %v, want 999ms", d.RetryAfter)
	}
	if d := c.Admit(0, t0.Add(500*time.Millisecond), free); d.Code != LockedOut || d.RetryAfter != 500*time.Millisecond {
		t.Fatalf("decision while locked out = %+v", d)
	}
	if d := c.Admit(1, t0.Add(500*time.Millisecond), free); !d.Admit {
		t.Fatalf("another client locked out: %v", d.Code)
	}
	if d := c.Admit(0, t0.Add(time.Second), free); !d.Admit {
		t.Fatalf("still locked out after the period ended: %v", d.Code)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("disabled config rejected: %v", err)
	}
	if err := (Config{Enabled: true}).Validate(); err != nil {
		t.Fatalf("default enabled config rejected: %v", err)
	}
	bad := []Config{
		{Enabled: true, RatePeriod: -time.Second},
		{Enabled: true, LockoutThreshold: -1},
		{Enabled: true, MaxClientPending: -1},
		{Enabled: true, BrownoutHigh: 2, BrownoutLow: 2},
		{Enabled: true, BrownoutHigh: 2, BrownoutLow: 3},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestControllerRateLimitAndLockout(t *testing.T) {
	c := NewController(Config{
		Enabled: true, Rate: 2, RatePeriod: time.Second,
		LockoutThreshold: 3, LockoutPeriod: 5 * time.Second,
	})
	pr := Pressure{BatchBytes: 1024}
	greedy, polite := types.ClientID(0), types.ClientID(1)

	for i := 0; i < 2; i++ {
		if d := c.Admit(greedy, t0, pr); !d.Admit {
			t.Fatalf("admit %d rejected within rate: %v", i, d.Code)
		}
	}
	// Over quota: shed, with a retry hint inside the period.
	d := c.Admit(greedy, t0, pr)
	if d.Admit || d.Code != RateLimited || d.RetryAfter <= 0 {
		t.Fatalf("over-quota decision = %+v", d)
	}
	// Two more rejections reach the lockout threshold.
	c.Admit(greedy, t0, pr)
	d = c.Admit(greedy, t0, pr)
	if d.Code != LockedOut {
		t.Fatalf("threshold rejection = %v, want LockedOut", d.Code)
	}
	// Locked out even in a fresh rate period.
	d = c.Admit(greedy, t0.Add(2*time.Second), pr)
	if d.Code != LockedOut {
		t.Fatalf("decision in fresh period = %v, want LockedOut (lockout outlives the rate period)", d.Code)
	}
	// The polite client is untouched throughout.
	if d := c.Admit(polite, t0.Add(2*time.Second), pr); !d.Admit {
		t.Fatalf("polite client rejected: %v", d.Code)
	}
	// The lockout period expires; the client is admitted again, and the
	// admission clears its failure history.
	if d := c.Admit(greedy, t0.Add(7*time.Second), pr); !d.Admit {
		t.Fatalf("post-lockout admission rejected: %v", d.Code)
	}
	st := c.Stats()
	if st.Admitted != 4 || st.ShedRate != 2 || st.LockedOut != 2 {
		t.Fatalf("stats = %+v", *st)
	}
}

func TestControllerInflightCap(t *testing.T) {
	c := NewController(Config{Enabled: true, Rate: -1, MaxClientPending: 4})
	pr := Pressure{BatchBytes: 1024, ClientPending: 3}
	if d := c.Admit(0, t0, pr); !d.Admit {
		t.Fatalf("below cap rejected: %v", d.Code)
	}
	pr.ClientPending = 4
	d := c.Admit(0, t0, pr)
	if d.Admit || d.Code != InflightCap || d.RetryAfter <= 0 {
		t.Fatalf("at cap decision = %+v", d)
	}
}

// TestControllerAdmitAllocFree pins the admission layer's hot-path cost as
// a count: admitting a known client allocates nothing, with the limiter
// off and with the default per-client quota (paced under it, across
// period rollovers).
func TestControllerAdmitAllocFree(t *testing.T) {
	for name, cfg := range map[string]Config{
		"unlimited":    {Enabled: true, Rate: -1},
		"default-rate": {Enabled: true},
	} {
		c := NewController(cfg)
		pr := Pressure{BatchBytes: 1024, PoolBytes: 512, PoolPending: 4, ClientPending: 4, ActiveClients: 1}
		now := t0
		allocs := testing.AllocsPerRun(1000, func() {
			now = now.Add(10 * time.Millisecond)
			if d := c.Admit(0, now, pr); !d.Admit {
				t.Fatalf("%s: rejected: %v", name, d.Code)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Admit allocates %v times per request, want 0", name, allocs)
		}
	}
}

// TestControllerBrownoutHysteresis pins the overload state machine:
// brownout engages above the high watermark, sticks between the
// watermarks, sheds only clients over their fair pool share, and clears
// below the low watermark even with no admission traffic (Observe).
func TestControllerBrownoutHysteresis(t *testing.T) {
	c := NewController(Config{
		Enabled: true, Rate: -1,
		BrownoutHigh: 4, BrownoutLow: 1,
	})
	base := Pressure{BatchBytes: 1000, PoolPending: 100, ActiveClients: 2}
	greedy := base
	greedy.ClientPending = 90
	polite := base
	polite.ClientPending = 10

	// Below the high watermark nothing is shed.
	greedy.PoolBytes = 3_000
	if d := c.Admit(0, t0, greedy); !d.Admit {
		t.Fatalf("shed below high watermark: %v", d.Code)
	}
	if c.Brownout() {
		t.Fatal("brownout below high watermark")
	}
	// Cross it: the over-share client sheds, the light one is admitted.
	greedy.PoolBytes = 5_000
	polite.PoolBytes = 5_000
	d := c.Admit(0, t0, greedy)
	if d.Admit || d.Code != Overload {
		t.Fatalf("over-share decision in brownout = %+v", d)
	}
	if !c.Brownout() {
		t.Fatal("brownout not entered above high watermark")
	}
	if d := c.Admit(1, t0, polite); !d.Admit {
		t.Fatalf("light client shed in brownout: %v", d.Code)
	}
	// Between the watermarks brownout is sticky.
	greedy.PoolBytes = 2_000
	if d := c.Admit(0, t0, greedy); d.Admit {
		t.Fatal("brownout released between watermarks")
	}
	// Draining below the low watermark clears it — via Observe alone.
	c.Observe(Pressure{BatchBytes: 1000, PoolBytes: 500})
	if c.Brownout() {
		t.Fatal("brownout not cleared below low watermark")
	}
	greedy.PoolBytes = 2_000
	if d := c.Admit(0, t0, greedy); !d.Admit {
		t.Fatalf("shed after brownout cleared: %v", d.Code)
	}
	if got := c.Stats().BrownoutEntered; got != 1 {
		t.Fatalf("BrownoutEntered = %d, want 1", got)
	}
}

// TestControllerPipelinePressure pins the second brownout input: a full
// proposal window counts like an extra batch of backlog.
func TestControllerPipelinePressure(t *testing.T) {
	c := NewController(Config{Enabled: true, Rate: -1, BrownoutHigh: 2, BrownoutLow: 1})
	pr := Pressure{BatchBytes: 1000, PoolBytes: 1500, Inflight: 4, MaxInflight: 4,
		PoolPending: 12, ClientPending: 10, ActiveClients: 2}
	// 1.5 batches of pool + 1.0 of pipeline = 2.5 >= high.
	if d := c.Admit(0, t0, pr); d.Admit {
		t.Fatal("full pipeline did not contribute to brownout pressure")
	}
	if !c.Brownout() {
		t.Fatal("brownout not entered")
	}
}
