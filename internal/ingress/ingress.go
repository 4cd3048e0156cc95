package ingress

import (
	"fmt"
	"time"

	"github.com/sof-repro/sof/internal/types"
)

// Code classifies an admission decision.
type Code uint8

const (
	// OK admits the request.
	OK Code = iota
	// RateLimited rejects it: the client spent its period quota.
	RateLimited
	// LockedOut rejects it: the client accumulated enough rejections to
	// be locked out for the lockout period.
	LockedOut
	// Overload rejects it: the node is in brownout and this client holds
	// more than its fair share of the pending pool.
	Overload
	// InflightCap rejects it: the client is at its per-client pending
	// bound.
	InflightCap
)

// String names a code the way the wire, logs and bench summaries do.
func (c Code) String() string {
	switch c {
	case OK:
		return "ok"
	case RateLimited:
		return "rate-limited"
	case LockedOut:
		return "locked-out"
	case Overload:
		return "overload"
	case InflightCap:
		return "inflight-cap"
	default:
		return fmt.Sprintf("code(%d)", uint8(c))
	}
}

// Decision is the outcome of one admission check.
type Decision struct {
	Admit bool
	Code  Code
	// RetryAfter hints when the client should try again (zero when
	// admitted; a period remainder otherwise).
	RetryAfter time.Duration
}

// Config tunes a Controller. The zero value is disabled; Enabled with
// everything else zero applies the defaults below.
type Config struct {
	// Enabled turns admission control on. Off, the whole layer
	// disappears: requests flow straight into the pool exactly as
	// before.
	Enabled bool
	// Rate is the per-client admission quota per RatePeriod
	// (default 256; negative = unlimited).
	Rate int
	// RatePeriod is the rate limiter's period (default 1s).
	RatePeriod time.Duration
	// LockoutThreshold locks a client out once its rejections within
	// LockoutPeriod reach this count (default 0 = no lockout).
	LockoutThreshold int
	// LockoutPeriod is the failure-count window and the lockout
	// duration (default 10s).
	LockoutPeriod time.Duration
	// MaxClientPending bounds how many admitted-but-unordered requests
	// one client may hold in the pool (default 0 = unbounded).
	MaxClientPending int
	// BrownoutHigh enters brownout when the pending pool backlog
	// exceeds this many batch targets (default 8; negative disables
	// brownout).
	BrownoutHigh float64
	// BrownoutLow leaves brownout when the backlog falls below this
	// many batch targets (default 2).
	BrownoutLow float64
	// EvictAfter drops a pooled request that has gone this long without
	// an ordering decision (default 30s; negative disables eviction).
	// Admission runs per node, so a replica may pool a request the
	// proposer sheds — without eviction that entry, and the backlog
	// pressure it exerts, would outlive the flood that caused it. The
	// acting proposer never evicts (its backlog is on its way into
	// batches), and an entry ordered after eviction is recovered through
	// the fetch-on-miss path.
	EvictAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.Rate == 0 {
		c.Rate = 256
	}
	if c.RatePeriod == 0 {
		c.RatePeriod = time.Second
	}
	if c.LockoutPeriod == 0 {
		c.LockoutPeriod = 10 * time.Second
	}
	if c.BrownoutHigh == 0 {
		c.BrownoutHigh = 8
	}
	if c.BrownoutLow == 0 {
		c.BrownoutLow = 2
	}
	if c.EvictAfter == 0 {
		c.EvictAfter = 30 * time.Second
	}
	return c
}

// Validate rejects nonsensical configurations (negative knobs other
// than the documented sentinels, inverted watermarks).
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	d := c.withDefaults()
	if c.RatePeriod < 0 || c.LockoutPeriod < 0 {
		return fmt.Errorf("ingress: periods must not be negative")
	}
	if c.LockoutThreshold < 0 || c.MaxClientPending < 0 {
		return fmt.Errorf("ingress: thresholds must not be negative")
	}
	if d.BrownoutHigh > 0 && d.BrownoutLow >= d.BrownoutHigh {
		return fmt.Errorf("ingress: BrownoutLow (%g) must be below BrownoutHigh (%g)",
			d.BrownoutLow, d.BrownoutHigh)
	}
	return nil
}

// Pressure is the ordering-backlog snapshot admission decides against:
// how full the pool is relative to the batch target, and how full the
// proposal pipeline is. The caller (the order process, on its event
// loop) samples it at admission time.
type Pressure struct {
	// PoolBytes is the pending wire bytes in the request pool.
	PoolBytes int
	// BatchBytes is the batch byte target (> 0).
	BatchBytes int
	// PoolPending is the number of pending requests.
	PoolPending int
	// ClientPending is the admitting client's own pending count.
	ClientPending int
	// ActiveClients is the number of clients with pending requests.
	ActiveClients int
	// Inflight and MaxInflight describe the proposal pipeline (both 0
	// on non-primary processes).
	Inflight, MaxInflight int
}

// backlog measures the pressure in batch-target multiples, the unit the
// brownout watermarks are expressed in. Pipeline occupancy adds to it:
// a full proposal window counts like one extra batch of backlog.
func (pr Pressure) backlog() float64 {
	if pr.BatchBytes <= 0 {
		return 0
	}
	b := float64(pr.PoolBytes) / float64(pr.BatchBytes)
	if pr.MaxInflight > 1 {
		b += float64(pr.Inflight) / float64(pr.MaxInflight)
	}
	return b
}

// Controller is one node's admission pipeline. It is NOT safe for
// concurrent use: it lives on the order process's event loop, like the
// pool it guards.
type Controller struct {
	cfg      Config
	brownout bool
	clients  map[types.NodeID]*clientState

	// Counters for the obs instruments (read by the owning process; no
	// atomics needed on the single event loop, but they are plain
	// uint64s exposed via Stats for func-backed registration).
	stats Stats
}

// clientState is what the limiters know about one client: its admissions
// in the running rate period, and its rejections in the running failure
// period (the lockout).
type clientState struct {
	rate, failures period
}

// period counts touches within a fixed-length window that starts at its
// first touch. It expires lazily: a touch at or after its end starts a
// fresh one, and a zero count is no period at all.
type period struct {
	end   time.Time
	count int
}

// incr counts one touch at now, starting a period of length when none is
// running, and returns the count within the running period and its
// remainder.
func (p *period) incr(now time.Time, length time.Duration) (int, time.Duration) {
	if p.count == 0 || !now.Before(p.end) {
		*p = period{end: now.Add(length)}
	}
	p.count++
	return p.count, p.end.Sub(now)
}

// Stats are the controller's lifetime counters.
type Stats struct {
	Admitted  uint64
	Shed      uint64 // all rejections except lockouts
	LockedOut uint64
	// ShedRate/ShedOverload/ShedInflight split Shed by cause.
	ShedRate, ShedOverload, ShedInflight uint64
	// BrownoutEntered counts low→high watermark transitions.
	BrownoutEntered uint64
}

// NewController builds a controller for cfg (which must be Enabled and
// Validated).
func NewController(cfg Config) *Controller {
	return &Controller{cfg: cfg.withDefaults(), clients: make(map[types.NodeID]*clientState)}
}

// EvictAfter returns the pool-entry eviction TTL (<= 0 when disabled).
func (c *Controller) EvictAfter() time.Duration { return c.cfg.EvictAfter }

// Stats returns the lifetime counters.
func (c *Controller) Stats() *Stats { return &c.stats }

// Brownout reports whether the controller is currently in brownout.
func (c *Controller) Brownout() bool { return c.brownout }

// Observe re-evaluates the brownout state against fresh pressure. The
// admission path calls it implicitly; the owning process also calls it
// as batches close and commit, so brownout clears as the backlog
// drains even when no new requests arrive.
func (c *Controller) Observe(pr Pressure) {
	if c.cfg.BrownoutHigh <= 0 {
		return
	}
	b := pr.backlog()
	if c.brownout {
		if b < c.cfg.BrownoutLow {
			c.brownout = false
		}
	} else if b >= c.cfg.BrownoutHigh {
		c.brownout = true
		c.stats.BrownoutEntered++
	}
}

// Admit decides one request from client against the current pressure.
// Every rejection is also a failure toward the client's lockout; an
// admission clears its failure state.
func (c *Controller) Admit(client types.NodeID, now time.Time, pr Pressure) Decision {
	c.Observe(pr)
	st := c.clients[client]
	if st == nil {
		st = &clientState{}
		c.clients[client] = st
	}
	d := c.decide(st, now, pr)
	switch d.Code {
	case OK:
		c.stats.Admitted++
	case LockedOut:
		c.stats.LockedOut++
	case RateLimited:
		c.stats.Shed++
		c.stats.ShedRate++
	case InflightCap:
		c.stats.Shed++
		c.stats.ShedInflight++
	case Overload:
		c.stats.Shed++
		c.stats.ShedOverload++
	}
	return d
}

func (c *Controller) decide(st *clientState, now time.Time, pr Pressure) Decision {
	if d, locked := c.lockedOut(st, now); locked {
		return d
	}
	if c.cfg.Rate > 0 {
		if n, resetIn := st.rate.incr(now, c.cfg.RatePeriod); n > c.cfg.Rate {
			return c.fail(st, now, Decision{Code: RateLimited, RetryAfter: resetIn})
		}
	}
	if c.cfg.MaxClientPending > 0 && pr.ClientPending >= c.cfg.MaxClientPending {
		return c.fail(st, now, Decision{Code: InflightCap, RetryAfter: c.cfg.RatePeriod})
	}
	if c.brownout && c.overShare(pr) {
		return c.fail(st, now, Decision{Code: Overload, RetryAfter: c.cfg.RatePeriod})
	}
	st.failures = period{} // an admission forgives earlier rejections
	return Decision{Admit: true, Code: OK}
}

// lockedOut reports whether the client's rejections within its running
// failure period have reached the lockout threshold, with the decision
// that says for how much longer.
func (c *Controller) lockedOut(st *clientState, now time.Time) (Decision, bool) {
	f := &st.failures
	if c.cfg.LockoutThreshold <= 0 || f.count < c.cfg.LockoutThreshold || !now.Before(f.end) {
		return Decision{}, false
	}
	return Decision{Code: LockedOut, RetryAfter: f.end.Sub(now)}, true
}

// overShare reports whether the admitting client holds strictly more
// than its fair share of the pending pool — the clients brownout sheds.
// Light clients stay below the average share and keep being admitted.
func (c *Controller) overShare(pr Pressure) bool {
	if pr.ActiveClients <= 0 {
		return pr.ClientPending > 0
	}
	return pr.ClientPending*pr.ActiveClients > pr.PoolPending
}

// fail records a rejection toward the client's lockout and, when this
// one crossed the threshold, upgrades the decision to LockedOut so the
// client learns the full penalty at once.
func (c *Controller) fail(st *clientState, now time.Time, d Decision) Decision {
	if c.cfg.LockoutThreshold > 0 {
		st.failures.incr(now, c.cfg.LockoutPeriod)
		if locked, ok := c.lockedOut(st, now); ok {
			return locked
		}
	}
	return d
}
