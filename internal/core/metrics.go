package core

import (
	"github.com/sof-repro/sof/internal/fsp"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/runtime"
)

// coreMetrics holds the process's registry instruments as direct
// pointers: the event loop updates them with single atomic operations —
// no map lookup, no allocation — and every field is nil when the
// process was built without a registry (obs instruments are nil-safe),
// so the unwired hot path pays one predicted branch per event.
type coreMetrics struct {
	watermark     *obs.Gauge   // highest contiguously delivered sequence
	entries       *obs.Counter // committed entries
	batches       *obs.Counter // committed subjects (batches + Starts)
	view          *obs.Gauge   // current view number
	rank          *obs.Gauge   // installed coordinator rank
	failovers     *obs.Counter // coordinator installations beyond the initial regime
	failSignals   *obs.Counter // fail-signals emitted or first received
	batchFill     *obs.Gauge   // fill ratio of the last closed batch
	inflight      *obs.Gauge   // proposal-window occupancy
	catchingUp    *obs.Gauge   // 1 while restart catch-up is in progress
	catchupTarget *obs.Gauge   // highest responder watermark seen this catch-up
	catchups      *obs.Counter // completed restart catch-up rounds
	// pairMargin is how far ahead of its deadline each awaited counterpart
	// output arrived: the slack the intra-pair time-domain checks have
	// against Delta.
	pairMargin *obs.Histogram

	// Client-ingress instruments (ingress.go): admission outcomes per
	// reason, the brownout state, and per-client queue depth at admission.
	ingressAdmitted     *obs.Counter
	ingressShedRate     *obs.Counter
	ingressShedOverload *obs.Counter
	ingressShedInflight *obs.Counter
	ingressLockedOut    *obs.Counter
	ingressEvicted      *obs.Counter
	ingressBrownout     *obs.Gauge
	ingressQueueDepth   *obs.Histogram

	// The race of a batch against its payload: proposals the shadow
	// defers because a request they order has not reached it, how long
	// each waits for its last one (check.go), and the FetchReqs sent for
	// missing payloads and subjects (fetch.go).
	shadowDeferred *obs.Counter
	shadowDeferral *obs.Histogram
	fetchPayload   *obs.Counter
	fetchSubject   *obs.Counter
}

// newCoreMetrics registers the ordering instruments (labeled by
// whatever the owner supplies — node, and group when sharded). A nil
// registry yields a zero coreMetrics whose nil instruments no-op.
func newCoreMetrics(r *obs.Registry, labels []obs.Label) coreMetrics {
	if r == nil {
		return coreMetrics{}
	}
	with := func(key, v string) []obs.Label {
		return append(append(make([]obs.Label, 0, len(labels)+1), labels...), obs.L(key, v))
	}
	return coreMetrics{
		watermark: r.Gauge("sof_commit_watermark",
			"Highest contiguously delivered sequence number.", labels...),
		entries: r.Counter("sof_committed_entries_total",
			"Request entries delivered in committed subjects.", labels...),
		batches: r.Counter("sof_committed_batches_total",
			"Subjects (batches and Starts) delivered.", labels...),
		view: r.Gauge("sof_view",
			"Current view number.", labels...),
		rank: r.Gauge("sof_coordinator_rank",
			"Rank of the installed coordinator regime.", labels...),
		failovers: r.Counter("sof_failovers_total",
			"Coordinator installations completed after a fail-signal.", labels...),
		failSignals: r.Counter("sof_fail_signals_total",
			"Fail-signals emitted by or first reaching this process.", labels...),
		batchFill: r.Gauge("sof_batch_fill_ratio",
			"Wire-byte fill ratio of the last closed batch (0..1).", labels...),
		inflight: r.Gauge("sof_inflight_proposals",
			"Proposed-but-undelivered batches in the primary's window.", labels...),
		catchingUp: r.Gauge("sof_catching_up",
			"1 while the process is catching up on missed commits after a restart.", labels...),
		catchupTarget: r.Gauge("sof_catchup_target",
			"Highest peer watermark seen during the current catch-up round.", labels...),
		catchups: r.Counter("sof_catchups_total",
			"Restart catch-up rounds completed.", labels...),
		pairMargin: r.Histogram("sof_pair_check_margin_seconds",
			"Time left to its deadline when an awaited counterpart output arrived.",
			[]float64{0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5, 10, 30}, labels...),
		ingressAdmitted: r.Counter("sof_ingress_admitted_total",
			"Client requests admitted past the ingress controller.", labels...),
		ingressShedRate: r.Counter("sof_ingress_shed_total",
			"Client requests shed at admission, by reason.", with("reason", "rate")...),
		ingressShedOverload: r.Counter("sof_ingress_shed_total",
			"Client requests shed at admission, by reason.", with("reason", "overload")...),
		ingressShedInflight: r.Counter("sof_ingress_shed_total",
			"Client requests shed at admission, by reason.", with("reason", "inflight")...),
		ingressLockedOut: r.Counter("sof_ingress_locked_out_total",
			"Client requests refused while their client was locked out.", labels...),
		ingressEvicted: r.Counter("sof_ingress_evicted_total",
			"Pooled requests evicted after EvictAfter without an ordering decision.", labels...),
		ingressBrownout: r.Gauge("sof_ingress_brownout",
			"1 while the admission controller is shedding over-share clients.", labels...),
		ingressQueueDepth: r.Histogram("sof_ingress_client_queue_depth",
			"Admitted client's pending-queue depth at admission.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}, labels...),
		shadowDeferred: r.Counter("sof_shadow_deferred_proposals_total",
			"Proposals the shadow deferred because a request they order had not reached it.", labels...),
		shadowDeferral: r.Histogram("sof_shadow_deferral_seconds",
			"Time a deferred proposal waited for the last request it orders.",
			[]float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.1, 1}, labels...),
		fetchPayload: r.Counter("sof_fetch_requests_total",
			"FetchReqs sent, by what they ask for.", with("what", "payload")...),
		fetchSubject: r.Counter("sof_fetch_requests_total",
			"FetchReqs sent, by what they ask for.", with("what", "subject")...),
	}
}

// pairMet discharges a pair expectation on the counterpart's output and,
// when the output was in fact awaited, records its margin.
func (p *Process) pairMet(env runtime.Env, key fsp.Key) {
	if deadline, awaited := p.pair.Met(key); awaited {
		p.m.pairMargin.ObserveDuration(deadline.Sub(env.Now()))
	}
}

// syncRegime refreshes the regime gauges after view/rank/watermark jumps
// that bypass the incremental update sites (checkpoint restore,
// committed Starts adopted from catch-up answers).
func (m *coreMetrics) syncRegime(p *Process) {
	m.view.SetInt(int64(p.view))
	m.rank.SetInt(int64(p.rank))
	m.watermark.SetInt(int64(p.deliveredUpTo))
}
