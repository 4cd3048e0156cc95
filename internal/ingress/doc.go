// Package ingress is the client admission layer: the decision a node
// makes, per inbound request, before the request is allowed into the
// ordering pool.
//
// It composes three independent checks into one Controller:
//
//   - a per-client period rate limiter: each client may have at most
//     Rate admissions per RatePeriod;
//   - a failure-count lockout: a client whose rejections within
//     LockoutPeriod reach LockoutThreshold is locked out entirely until
//     the period expires;
//   - a load-shedding brownout controller: admission watches the
//     ordering backlog (pending pool bytes measured in batch-target
//     multiples, and proposal-pipeline occupancy) and, past a high
//     watermark, enters brownout — a sticky overload mode, left only
//     below a separate low watermark (hysteresis) — in which clients
//     holding more than their fair share of the pending pool are shed
//     while light clients keep being admitted.
//
// Both limiters count per client, in one state the Controller keeps for
// each client it has seen: a period starts at the client's first request
// that reaches the limiter, and is reset lazily by the first one at or
// after its end. Limits are per node.
//
// Every rejection carries a Code and a RetryAfter hint; core wraps them
// in a signed message.Rejected so clients can back off instead of
// guessing. The Controller is single-goroutine (it runs on the order
// process's event loop) and takes the clock as an argument, so it works
// unchanged on the virtual-time simulator.
package ingress
