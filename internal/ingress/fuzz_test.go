package ingress

import (
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/types"
)

// FuzzAdmit drives a Controller with an arbitrary sequence of (client,
// time step, pressure) triples — rate limit, pending cap, brownout and
// lockout all live — and checks it against what the limiters promise:
// a client is admitted at most Rate times within one rate period (a
// period starts at the first request that reaches the limiter and ends
// RatePeriod later); a locked-out client is admitted nothing, and told
// so, until its lockout ends; the controller holds state for no more
// clients than it has seen.
func FuzzAdmit(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 1, 7, 0, 1, 7, 0, 1, 7, 0, 1, 7, 0, 200, 0, 1, 0, 0})
	f.Add([]byte{1, 30, 255, 2, 10, 250, 1, 60, 3, 3, 5, 128, 0, 90, 64})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const (
			rate       = 3
			ratePeriod = 100 * time.Millisecond
		)
		c := NewController(Config{
			Enabled: true, Rate: rate, RatePeriod: ratePeriod,
			LockoutThreshold: 4, LockoutPeriod: 300 * time.Millisecond,
			MaxClientPending: 6, BrownoutHigh: 4, BrownoutLow: 1,
		})
		type client struct {
			periodEnd   time.Time // end of the running rate period
			touches     int       // requests that reached the rate limiter in it
			admitted    int       // admissions in it
			lockedUntil time.Time
		}
		seen := make(map[types.NodeID]*client)
		now := t0
		for ; len(ops) >= 3; ops = ops[3:] {
			id := types.ClientID(int(ops[0]) % 4)
			now = now.Add(time.Duration(ops[1]) * 2 * time.Millisecond)
			pr := Pressure{
				BatchBytes: 1000, PoolBytes: int(ops[2]>>3) * 200,
				PoolPending: 8, ClientPending: int(ops[2] & 7), ActiveClients: 2,
			}
			m := seen[id]
			if m == nil {
				m = &client{}
				seen[id] = m
			}
			locked := now.Before(m.lockedUntil)
			d := c.Admit(id, now, pr)
			if locked {
				if d.Admit || d.Code != LockedOut || d.RetryAfter != m.lockedUntil.Sub(now) {
					t.Fatalf("client %v at %v, locked out until %v: decision %+v", id, now, m.lockedUntil, d)
				}
				continue
			}
			if !now.Before(m.periodEnd) {
				m.periodEnd, m.touches, m.admitted = now.Add(ratePeriod), 0, 0
			}
			m.touches++
			switch {
			case d.Admit:
				if m.admitted++; m.admitted > rate {
					t.Fatalf("client %v admitted %d times in one rate period (Rate %d)", id, m.admitted, rate)
				}
			case d.Code == RateLimited && m.touches <= rate:
				t.Fatalf("client %v rate-limited at request %d of its period (Rate %d)", id, m.touches, rate)
			case d.Code == LockedOut:
				if d.RetryAfter <= 0 {
					t.Fatalf("client %v locked out with RetryAfter %v", id, d.RetryAfter)
				}
				m.lockedUntil = now.Add(d.RetryAfter)
			}
			if len(c.clients) > len(seen) {
				t.Fatalf("controller holds state for %d clients, saw %d", len(c.clients), len(seen))
			}
		}
	})
}
