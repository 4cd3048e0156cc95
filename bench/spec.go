package main

import "time"

// The cluster under test is always SC with f = 1: four order processes,
// so a 2-core box measures the program and not the scheduler.
const (
	faults   = 1
	numProcs = 3*faults + 1
	quorum   = faults + 1
	clients  = 2

	maxDrain    = time.Second
	sliceLen    = 100 * time.Millisecond // traced pass: span recording alternates by slice
	killAt      = time.Second            // ± killJitter, seeded
	killJitter  = 100 * time.Millisecond
	setupRounds = 3 // boots per trial; setup_s is the median over all of a pass's boots

	// Open-loop hygiene: a run is invalid when more than lateShare of its
	// sends started more than lateLimit after their due instant, or when
	// fewer than minCommitted of the offered requests committed.
	lateLimit    = 5 * time.Millisecond
	lateShare    = 0.10
	minCommitted = 0.98

	sampleEvery = 16 // traced pass: one request in sampleEvery gets spans
)

// workload is one named traffic mix. Rate 0 selects the closed loop.
type workload struct {
	Name string
	Why  string

	Rate        int // open loop: requests per second over all clients
	Outstanding int // closed loop: requests in flight per client
	ReqBytes    int
	BatchBytes  int
	Durable     bool
	Delta       time.Duration // 0: the harness default, 5 s
	// Trial is the measured window of one trial and WarmUp the load that
	// precedes it, excluded from every metric.
	Trial, WarmUp time.Duration
	// Kill crashes the candidate-1 primary killAt into each trial, with
	// requests still sent on schedule through the outage.
	Kill bool
	// RetryAfter makes the load generator behave like a real client under
	// faults: a request with no f+1 commit this long after it was sent is
	// submitted again, and the operation completes when either commits.
	RetryAfter time.Duration
}

var workloads = []workload{
	{
		Name: "steady-open",
		Why:  "open loop at 2000 req/s of 128 B, ~0.45 core: latency is batch-close policy, hops and timers, not CPU",
		Rate: 2000, ReqBytes: 128, BatchBytes: 1024,
		Trial: 4 * time.Second, WarmUp: time.Second,
	},
	{
		Name:        "saturate-closed",
		Why:         "closed loop, 2 clients x 8 in flight, both cores busy: per-message CPU and allocation cost set throughput, WAL idle",
		Outstanding: 8, ReqBytes: 128, BatchBytes: 1024,
		Trial: 4 * time.Second, WarmUp: time.Second,
	},
	{
		Name: "bulk-durable",
		Why:  "open loop at 1000 req/s of 4 KB into 16 KB batches with WAL on: bytes dominate messages, fsync is on the path",
		Rate: 1000, ReqBytes: 4096, BatchBytes: 16384, Durable: true,
		Trial: 4 * time.Second, WarmUp: time.Second,
	},
	{
		Name: "failover-crash",
		Why:  "open loop at 1000 req/s while the primary is killed: suspicion, fail-signal and install of the next candidate",
		Rate: 1000, ReqBytes: 128, BatchBytes: 1024, Delta: 200 * time.Millisecond,
		Trial: 2500 * time.Millisecond, Kill: true, RetryAfter: 600 * time.Millisecond,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef mirrors one BENCHMARK.json metric entry; bench_test.go holds
// the two in step. Bound is the share of the parent's median by which an
// end-to-end metric may worsen; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"commit_p50_ms", "ms", lower, 0.25},
	{"commit_p95_ms", "ms", lower, 0.25},
	{"committed_per_s", "1/s", higher, 0.25},
	{"allocs_per_commit", "count", lower, 0.06},
}

var perLayer = []metricDef{
	// host: how much of the run belonged to the machine's neighbours.
	{Name: "host.cpu_steal_pct", Unit: "%", Better: lower},
	// loadgen: validity of the run, not a target.
	{Name: "loadgen.commit_p99_ms", Unit: "ms", Better: lower},
	{Name: "loadgen.commit_max_ms", Unit: "ms", Better: lower},
	{Name: "loadgen.service_gap_ms", Unit: "ms", Better: lower},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: lower},
	{Name: "loadgen.late_max_ms", Unit: "ms", Better: lower},
	{Name: "loadgen.submit_p50_us", Unit: "us", Better: lower},
	{Name: "loadgen.retried", Unit: "count", Better: lower},
	{Name: "loadgen.trace_overhead_pct", Unit: "%", Better: lower},
	// process
	{Name: "process.cpu_cores_busy", Unit: "cores", Better: lower},
	{Name: "process.cpu_us_per_commit", Unit: "us", Better: lower},
	{Name: "process.cpu_sys_us_per_commit", Unit: "us", Better: lower},
	{Name: "process.alloc_kb_per_commit", Unit: "KB", Better: lower},
	{Name: "process.retained_kb_per_commit", Unit: "KB", Better: lower},
	{Name: "process.gc_pause_ms_per_s", Unit: "ms/s", Better: lower},
	{Name: "process.goroutines", Unit: "count", Better: lower},
	// core: Recorder and registry counters, then the pool drive.
	{Name: "core.entries_per_batch", Unit: "count", Better: higher},
	{Name: "core.batch_fill_ratio", Unit: "ratio", Better: higher},
	{Name: "core.size_triggered_share", Unit: "ratio", Better: higher},
	{Name: "core.max_inflight", Unit: "count", Better: higher},
	{Name: "core.order_p50_ms", Unit: "ms", Better: lower},
	{Name: "core.queue_wait_p50_ms", Unit: "ms", Better: lower},
	{Name: "core.commit_spread_ms", Unit: "ms", Better: lower},
	{Name: "core.fail_signals", Unit: "count", Better: lower},
	{Name: "core.installs", Unit: "count", Better: lower},
	{Name: "core.pool_add_ns", Unit: "ns", Better: lower},
	{Name: "core.pool_nextbatch_ns", Unit: "ns", Better: lower},
	{Name: "core.pool_nextbatch_fair_ns", Unit: "ns", Better: lower},
	// ingress
	{Name: "ingress.admitted_per_commit", Unit: "ratio", Better: lower},
	{Name: "ingress.shed_total", Unit: "count", Better: lower},
	{Name: "ingress.admit_ns", Unit: "ns", Better: lower},
	// message drive, on the workload's own request and batch shape.
	{Name: "message.request_marshal_ns", Unit: "ns", Better: lower},
	{Name: "message.request_marshal_allocs", Unit: "count", Better: lower},
	{Name: "message.request_decode_ns", Unit: "ns", Better: lower},
	{Name: "message.request_decode_allocs", Unit: "count", Better: lower},
	{Name: "message.orderbatch_marshal_ns", Unit: "ns", Better: lower},
	{Name: "message.orderbatch_marshal_allocs", Unit: "count", Better: lower},
	{Name: "message.orderbatch_decode_ns", Unit: "ns", Better: lower},
	{Name: "message.orderbatch_decode_allocs", Unit: "count", Better: lower},
	{Name: "message.ack_marshal_ns", Unit: "ns", Better: lower},
	{Name: "message.ack_marshal_allocs", Unit: "count", Better: lower},
	{Name: "message.ack_decode_ns", Unit: "ns", Better: lower},
	{Name: "message.ack_decode_allocs", Unit: "count", Better: lower},
	{Name: "message.remarshal_memo_ns", Unit: "ns", Better: lower},
	{Name: "message.remarshal_memo_allocs", Unit: "count", Better: lower},
	// codec drive
	{Name: "codec.write_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "codec.read_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "codec.writer_pool_allocs", Unit: "count", Better: lower},
	// crypto drive, suite in use
	{Name: "crypto.sign_ns", Unit: "ns", Better: lower},
	{Name: "crypto.verify_ns", Unit: "ns", Better: lower},
	{Name: "crypto.digest_ns_per_kb", Unit: "ns/KB", Better: lower},
	// session drive and registry
	{Name: "session.seal_ns", Unit: "ns", Better: lower},
	{Name: "session.open_ns", Unit: "ns", Better: lower},
	{Name: "session.seal_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "session.retransmitted_total", Unit: "count", Better: lower},
	{Name: "session.duplicates_total", Unit: "count", Better: lower},
	// tcpnet registry and drive
	{Name: "tcpnet.frames_per_commit", Unit: "ratio", Better: lower},
	{Name: "tcpnet.dropped_total", Unit: "count", Better: lower},
	{Name: "tcpnet.reconnects_total", Unit: "count", Better: lower},
	{Name: "tcpnet.frame_append_ns", Unit: "ns", Better: lower},
	{Name: "tcpnet.frame_read_ns", Unit: "ns", Better: lower},
	{Name: "tcpnet.loopback_rtt_us", Unit: "us", Better: lower},
	// wal registry and drive
	{Name: "wal.appends_per_commit", Unit: "ratio", Better: lower},
	{Name: "wal.syncs_per_s", Unit: "1/s", Better: lower},
	{Name: "wal.fsync_p50_ms", Unit: "ms", Better: lower},
	{Name: "wal.fsync_p99_ms", Unit: "ms", Better: lower},
	{Name: "wal.append_ns", Unit: "ns", Better: lower},
	{Name: "wal.append_ns_per_kb", Unit: "ns/KB", Better: lower},
	{Name: "wal.sync_ms", Unit: "ms", Better: lower},
	// shard drive: a baseline for a later sharded workload.
	{Name: "shard.groupfor_ns", Unit: "ns", Better: lower},
}
