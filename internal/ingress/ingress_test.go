package ingress

import (
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/types"
)

var t0 = time.Unix(1_000_000, 0)

func TestMemStorePeriods(t *testing.T) {
	s := NewMemStore()
	if n, _ := s.Incr("k", time.Second, t0); n != 1 {
		t.Fatalf("first Incr = %d, want 1", n)
	}
	if n, reset := s.Incr("k", time.Second, t0.Add(300*time.Millisecond)); n != 2 || reset != 700*time.Millisecond {
		t.Fatalf("second Incr = (%d, %v), want (2, 700ms)", n, reset)
	}
	// The period expires: the counter restarts.
	if n, _ := s.Incr("k", time.Second, t0.Add(2*time.Second)); n != 1 {
		t.Fatalf("post-expiry Incr = %d, want 1", n)
	}
	if _, _, ok := s.Peek("k", t0.Add(10*time.Second)); ok {
		t.Fatal("Peek saw an expired period")
	}
	if n, _, ok := s.Peek("k", t0.Add(2*time.Second)); !ok || n != 1 {
		t.Fatalf("Peek = (%d, %v), want (1, true)", n, ok)
	}
	s.Del("k")
	if s.Len() != 0 {
		t.Fatalf("Len after Del = %d", s.Len())
	}
}

func TestPeriodLimitQuota(t *testing.T) {
	l := &PeriodLimit{Quota: 3, Period: time.Second, Store: NewMemStore()}
	for i := 0; i < 3; i++ {
		if ok, _ := l.Take("c", t0); !ok {
			t.Fatalf("take %d rejected within quota", i)
		}
	}
	ok, resetIn := l.Take("c", t0.Add(time.Millisecond))
	if ok {
		t.Fatal("take over quota admitted")
	}
	if resetIn <= 0 || resetIn > time.Second {
		t.Fatalf("resetIn = %v outside (0, period]", resetIn)
	}
	// An independent key is unaffected; the period restart forgives.
	if ok, _ := l.Take("other", t0); !ok {
		t.Fatal("independent key rejected")
	}
	if ok, _ := l.Take("c", t0.Add(2*time.Second)); !ok {
		t.Fatal("take after period restart rejected")
	}
}

func TestPeriodFailureLimitLockout(t *testing.T) {
	l := &PeriodFailureLimit{Threshold: 3, Period: time.Second, Store: NewMemStore()}
	if locked, _ := l.Locked("c", t0); locked {
		t.Fatal("fresh key locked")
	}
	l.RecordFailure("c", t0)
	l.RecordFailure("c", t0)
	if locked, _ := l.Locked("c", t0); locked {
		t.Fatal("locked below threshold")
	}
	if !l.RecordFailure("c", t0) {
		t.Fatal("threshold failure did not lock")
	}
	locked, resetIn := l.Locked("c", t0.Add(time.Millisecond))
	if !locked || resetIn <= 0 {
		t.Fatalf("Locked = (%v, %v) after threshold", locked, resetIn)
	}
	// Expiry unlocks; Reset forgives early.
	if locked, _ := l.Locked("c", t0.Add(2*time.Second)); locked {
		t.Fatal("still locked after period expiry")
	}
	l.RecordFailure("d", t0)
	l.RecordFailure("d", t0)
	l.Reset("d")
	l.RecordFailure("d", t0)
	if locked, _ := l.Locked("d", t0); locked {
		t.Fatal("Reset did not forgive earlier failures")
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
		{Enabled: true, FairQuantum: -1},
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
