package harness

import (
	"fmt"
	"os"
	stdruntime "runtime"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/stats"
	"github.com/sof-repro/sof/internal/types"
)

// This file packages the paper's experiments (Section 5) as functions the
// benchmarks and cmd/sofbench share. The virtual-time simulator plays the
// paper's 15-node LAN cluster; suites are replaced by their cost-modelled
// counterparts so a sweep completes in milliseconds of wall time.

// PaperIntervals is the batching-interval sweep of Figures 4 and 5
// ("Batching interval is varied from 40 milliseconds to 500 ms").
var PaperIntervals = []time.Duration{
	40 * time.Millisecond, 60 * time.Millisecond, 80 * time.Millisecond,
	100 * time.Millisecond, 150 * time.Millisecond, 200 * time.Millisecond,
	300 * time.Millisecond, 400 * time.Millisecond, 500 * time.Millisecond,
}

// PaperBacklogKBs is the BackLog-size sweep of Figure 6 (1-5 KB).
var PaperBacklogKBs = []int{1, 2, 3, 4, 5}

// FigurePoint is one measured point of Figures 4/5.
type FigurePoint struct {
	Protocol      types.Protocol
	Suite         crypto.SuiteName
	F             int
	BatchInterval time.Duration
	Latency       stats.Summary
	Throughput    float64 // requests committed per second at one order process
	Batches       int
}

// modelSuiteFor maps a study suite to its DES cost-model twin; CT runs
// without cryptography, as in the paper.
func modelSuiteFor(proto types.Protocol, suite crypto.SuiteName) crypto.SuiteName {
	if proto == types.CT {
		return crypto.NoneSuite
	}
	if _, isModel := crypto.Emulates(suite); isModel {
		return suite
	}
	return crypto.ModelPrefix + suite
}

// EntryOverheadWire is the wire cost one ordered entry adds to a batch
// beyond its request payload in the benchmark configurations: core's
// per-entry overhead plus the 32-byte request digest of the HMAC/SHA-256
// suites. The interval-paced throughput ceiling the pipelined series
// breaks is MaxBatchBytes / (RequestBytes + EntryOverheadWire) entries
// per BatchInterval.
const EntryOverheadWire = core.EntryOverhead + 32

// LoadFor returns an open-loop client load that keeps 1 KB batches full at
// the given batching interval (the paper's saturating best-case clients):
// the offered byte rate is ~1.3x the batch capacity.
func LoadFor(batchInterval time.Duration, batchBytes int) *LoadSpec {
	const reqBytes = 128
	perBatch := float64(batchBytes) * 1.3 / reqBytes
	interval := time.Duration(float64(batchInterval) / perBatch)
	if interval < 50*time.Microsecond {
		interval = 50 * time.Microsecond
	}
	return &LoadSpec{RequestBytes: reqBytes, Interval: interval}
}

// RunLatencyThroughputPoint measures one (protocol, suite, interval) point
// of Figures 4/5 on the simulator: warm-up then a measured window.
func RunLatencyThroughputPoint(proto types.Protocol, suite crypto.SuiteName, f int,
	interval time.Duration, window time.Duration, seed int64) (FigurePoint, error) {

	opts := Options{
		Protocol:         proto,
		F:                f,
		Suite:            modelSuiteFor(proto, suite),
		BatchInterval:    interval,
		MaxBatchBytes:    1024,
		Delta:            time.Hour, // fail-free run: timing checks must never fire
		Mirror:           proto == types.SC || proto == types.SCR,
		DumbOptimization: proto == types.SC,
		Net:              netsim.LANDefaults(),
		Seed:             seed,
		Load:             LoadFor(interval, 1024),
	}
	c, err := New(opts)
	if err != nil {
		return FigurePoint{}, err
	}
	c.Start()

	warmup := 10 * interval
	if warmup < 500*time.Millisecond {
		warmup = 500 * time.Millisecond
	}
	c.RunFor(warmup)
	c.Events.StartWindow(c.Now())
	c.RunFor(window)

	// Throughput at one non-coordinator order process (the paper counts
	// "messages committed by an order process per second").
	probe, err := c.Topo.ReplicaID(c.Topo.NumReplicas())
	if err != nil {
		return FigurePoint{}, err
	}
	fp := FigurePoint{
		Protocol:      proto,
		Suite:         suite,
		F:             f,
		BatchInterval: interval,
		Latency:       c.Events.LatencySummary(),
		Throughput:    stats.Rate(c.Events.CommittedEntries(probe), window),
		Batches:       c.Events.BatchCount(),
	}
	if fp.Latency.Count == 0 {
		return fp, fmt.Errorf("harness: no committed batches for %v/%v at %v", proto, suite, interval)
	}
	return fp, nil
}

// HotPathPoint is one measured point of the hot-path benchmark: the
// harness's own cost per committed batch on a simulated run with commit
// retention, as seen by a measurement loop that polls commit state the way
// AwaitCommit/drainReplicas do. Wall-clock nanoseconds and heap
// allocations are charged to the whole measured window and divided by the
// number of batches that committed in it; an O(1) steady state shows as
// flat NsPerBatch/AllocsPerBatch as Window doubles. Mode "tcp" points
// (RunTCPHotPathPoint) run on the wall clock over the TCP runtime
// instead, so their NsPerBatch is end-to-end wire time, not overhead.
type HotPathPoint struct {
	Mode           string        `json:"mode"` // "cursor", a TCPModes entry, or "tcp-pipelined"
	Window         time.Duration `json:"window_ns"`
	Batches        int           `json:"batches"`
	CommitEvents   int           `json:"commit_events"`
	NsPerBatch     float64       `json:"ns_per_batch"`
	AllocsPerBatch float64       `json:"allocs_per_batch"`
	Throughput     float64       `json:"committed_per_s"`
	// OfferedLoad is the client-load multiplier relative to LoadFor's
	// saturating baseline (tcp-pipelined sweep points only; 0 otherwise).
	OfferedLoad float64 `json:"offered_load_x,omitempty"`
	// Groups is the ordering-group count of a "tcp-sharded" point (0 on
	// every other series); Throughput is then the AGGREGATE committed
	// rate summed over all groups.
	Groups int `json:"groups,omitempty"`
}

// RunHotPathPoint measures harness overhead per committed batch over a
// simulated window at a small batching interval, with commit events
// retained, polled through a commit cursor the way AwaitCommit and
// drainReplicas do. It runs with the bounded ring so eviction — the path
// production retention users hit — is part of what's measured.
func RunHotPathPoint(window time.Duration, seed int64) (HotPathPoint, error) {
	const interval = 40 * time.Millisecond
	opts := Options{
		Protocol:         types.SC,
		F:                2,
		Suite:            crypto.ModelPrefix + crypto.MD5RSA1024,
		BatchInterval:    interval,
		MaxBatchBytes:    1024,
		Delta:            time.Hour,
		Mirror:           true,
		DumbOptimization: true,
		Net:              netsim.LANDefaults(),
		Seed:             seed,
		Load:             LoadFor(interval, 1024),
		KeepCommits:      true,
		CommitRetention:  4096,
	}
	c, err := New(opts)
	if err != nil {
		return HotPathPoint{}, err
	}
	c.Start()
	c.RunFor(time.Second) // warm-up
	c.Events.StartWindow(c.Now())

	// The measurement loop: advance the simulation in 100 ms slices and,
	// after each slice, consume new commit events and poll commit state —
	// the access pattern of a client driving AwaitCommit plus the replica
	// layer's drain.
	probe := message.ReqID{Client: types.ClientID(0), ClientSeq: 1}
	batches0 := c.Events.BatchCount()
	cursor := c.Events.CommitCursor()
	// commitEvents counts commit events observed inside the window;
	// warm-up events predate cursor and are excluded.
	commitEvents := 0

	stdruntime.GC()
	var ms0, ms1 stdruntime.MemStats
	stdruntime.ReadMemStats(&ms0)
	t0 := time.Now()
	for elapsed := time.Duration(0); elapsed < window; elapsed += 100 * time.Millisecond {
		c.RunFor(100 * time.Millisecond)
		events, next, _ := c.Events.CommitsSince(cursor)
		cursor = next
		commitEvents += len(events)
		_ = c.Events.Committed(probe)
		_ = c.Events.LatencySummary() // summary poll, memoized between commits
	}
	elapsedWall := time.Since(t0)
	stdruntime.ReadMemStats(&ms1)

	batches := c.Events.BatchCount() - batches0
	if batches == 0 {
		return HotPathPoint{}, fmt.Errorf("harness: no batches committed in hot-path window %v", window)
	}
	probeNode, err := c.Topo.ReplicaID(c.Topo.NumReplicas())
	if err != nil {
		return HotPathPoint{}, err
	}
	return HotPathPoint{
		Mode:           "cursor",
		Window:         window,
		Batches:        batches,
		CommitEvents:   commitEvents,
		NsPerBatch:     float64(elapsedWall.Nanoseconds()) / float64(batches),
		AllocsPerBatch: float64(ms1.Mallocs-ms0.Mallocs) / float64(batches),
		Throughput:     stats.Rate(c.Events.CommittedEntries(probeNode), window),
	}, nil
}

// TCPModes are the TCP hot-path benchmark variants, in measurement
// order: plain frames, authenticated resumable sessions, and
// authenticated resumable sessions with the durable write-ahead logs on —
// so the seal/open overhead and the group-committed fsync overhead are
// each visible as a delta against the previous series.
var TCPModes = []string{"tcp", "tcp-auth", "tcp-durable"}

// RunTCPHotPathPoint measures the TCP runtime end to end over a
// wall-clock window: a live SC cluster whose processes are real loopback
// TCP endpoints, driven by the saturating open-loop client load. Unlike
// the simulated points (which charge only harness overhead to the
// window), these points include real time — protocol execution, HMAC
// signing, framing, socket I/O — so NsPerBatch tracks the delivered
// batch rate of the wire path and AllocsPerBatch its allocation cost,
// which is where encode-once fan-out and buffer pooling show up. mode
// selects the variant (see TCPModes): "tcp-auth" adds frame-v2
// authenticated resumable sessions, quantifying the per-frame seal/open
// overhead against the plain "tcp" series, and "tcp-durable"
// additionally journals session state and the commit stream to
// write-ahead logs in a throwaway directory, quantifying the durability
// overhead — which group commit keeps off the hot path, so its ms/batch
// and allocs/batch stay within a few percent of "tcp-auth".
func RunTCPHotPathPoint(window time.Duration, seed int64, mode string) (HotPathPoint, error) {
	const interval = 10 * time.Millisecond
	opts := Options{
		Protocol:         types.SC,
		F:                2,
		Suite:            crypto.HMACSHA256,
		BatchInterval:    interval,
		MaxBatchBytes:    1024,
		Delta:            time.Hour,
		Mirror:           true,
		DumbOptimization: true,
		Net:              netsim.LANDefaults(),
		Seed:             seed,
		Load:             LoadFor(interval, 1024),
		KeepCommits:      true,
		CommitRetention:  4096,
		Live:             true,
		Transport:        types.TransportTCP,
	}
	switch mode {
	case "tcp":
	case "tcp-auth":
		opts.AuthFrames = true
		opts.SessionResume = true
	case "tcp-durable":
		opts.AuthFrames = true
		opts.SessionResume = true
		opts.Durable = true
		dir, err := os.MkdirTemp("", "sof-durable-bench-*")
		if err != nil {
			return HotPathPoint{}, err
		}
		defer os.RemoveAll(dir)
		opts.DataDir = dir
	default:
		return HotPathPoint{}, fmt.Errorf("harness: unknown TCP hot-path mode %q", mode)
	}
	return measureTCPPoint(opts, window, mode)
}

// RunTCPPipelinedPoint measures the pipelined proposal path end to end on
// the TCP runtime: the same live SC cluster as RunTCPHotPathPoint's "tcp"
// series, with the proposal window opened to eight outstanding batches and
// digest-only acks on, driven at loadMult times the saturating baseline
// client load. The interval-paced proposer tops out near
// entries-per-batch / BatchInterval committed requests per second no
// matter the offered load; the pipelined series is the evidence the
// size-triggered close + window refill actually broke that ceiling (and
// at what batch fill it did so).
func RunTCPPipelinedPoint(window time.Duration, seed int64, loadMult float64) (HotPathPoint, error) {
	return runTCPPipelinedPoint(window, seed, loadMult, false, false)
}

// RunTCPPipelinedPointNoMetrics is the same point with the per-node
// registries disabled: the baseline the metrics-overhead smoke guard
// compares the default (instrumented) point against.
func RunTCPPipelinedPointNoMetrics(window time.Duration, seed int64, loadMult float64) (HotPathPoint, error) {
	return runTCPPipelinedPoint(window, seed, loadMult, true, false)
}

// RunTCPIngressPoint is the pipelined point with the full client
// admission pipeline on — limiter lookup, per-client accounting,
// brownout sampling and DRR fair dequeue on every request — configured
// so no request is actually shed (unlimited rate, no lockout, no
// per-client cap; a lone client is never over-share, so brownout cannot
// refuse it either). Its committed/s against the plain pipelined point
// is the admission layer's hot-path cost, which the ingress-overhead
// smoke guard bounds.
func RunTCPIngressPoint(window time.Duration, seed int64, loadMult float64) (HotPathPoint, error) {
	return runTCPPipelinedPoint(window, seed, loadMult, false, true)
}

func runTCPPipelinedPoint(window time.Duration, seed int64, loadMult float64, noMetrics, withIngress bool) (HotPathPoint, error) {
	const interval = 10 * time.Millisecond
	if loadMult <= 0 {
		loadMult = 1
	}
	load := LoadFor(interval, 1024)
	load.Interval = time.Duration(float64(load.Interval) / loadMult)
	if load.Interval < 50*time.Microsecond {
		load.Interval = 50 * time.Microsecond
	}
	opts := Options{
		Protocol:           types.SC,
		F:                  2,
		Suite:              crypto.HMACSHA256,
		BatchInterval:      interval,
		MaxBatchBytes:      1024,
		Delta:              time.Hour,
		Mirror:             true,
		DumbOptimization:   true,
		Net:                netsim.LANDefaults(),
		Seed:               seed,
		Load:               load,
		KeepCommits:        true,
		CommitRetention:    4096,
		Live:               true,
		Transport:          types.TransportTCP,
		MaxInflightBatches: 8,
		DigestOnlyAcks:     true,
		DisableMetrics:     noMetrics,
	}
	mode := "tcp-pipelined"
	if withIngress {
		mode = "tcp-ingress"
		opts.Ingress = ingress.Config{Enabled: true, Rate: -1}
	}
	p, err := measureTCPPoint(opts, window, mode)
	if err != nil {
		return p, err
	}
	p.OfferedLoad = loadMult
	return p, nil
}

// ShardedGroupCounts is the -groups sweep of the "tcp-sharded" series:
// the same per-group configuration at 1, 2 and 4 ordering groups, so the
// aggregate-throughput scaling of the partitioned ingress is read
// directly off the series.
var ShardedGroupCounts = []int{1, 2, 4}

// RunTCPShardedPoint measures the sharded ordering path end to end: one
// live SC cluster (f=1) running `groups` independent ordering groups over
// the same four physical TCP endpoints, each group driven by its own
// saturating open-loop client at the strictly interval-paced proposer
// (the per-group commit rate is bounded by entries-per-batch /
// BatchInterval, NOT by the machine), so aggregate throughput scales with
// the group count until the shared cores saturate. Throughput is the sum
// of per-group committed rates; the 1-group point is the unsharded
// baseline the scaling factor is measured against.
func RunTCPShardedPoint(window time.Duration, seed int64, groups int) (HotPathPoint, error) {
	const interval = 10 * time.Millisecond
	if groups < 1 {
		return HotPathPoint{}, fmt.Errorf("harness: sharded point needs groups >= 1, got %d", groups)
	}
	opts := Options{
		Protocol:         types.SC,
		F:                1,
		Suite:            crypto.HMACSHA256,
		BatchInterval:    interval,
		MaxBatchBytes:    1024,
		Delta:            time.Hour,
		Mirror:           true,
		DumbOptimization: true,
		Net:              netsim.LANDefaults(),
		Seed:             seed,
		// One loaded client per group (client k drives group k mod
		// groups), so every group sees the same saturating load at every
		// sweep point and the aggregate scales only through sharding.
		Load:            LoadFor(interval, 1024),
		NumClients:      groups,
		Groups:          groups,
		KeepCommits:     true,
		CommitRetention: 4096,
		Live:            true,
		Transport:       types.TransportTCP,
	}
	c, err := New(opts)
	if err != nil {
		return HotPathPoint{}, err
	}
	c.Start()
	defer c.Stop()
	c.RunFor(500 * time.Millisecond) // warm-up (wall clock)

	n := c.GroupCount()
	cursors := make([]uint64, n)
	batches0 := 0
	for g := 0; g < n; g++ {
		rec := c.RecorderOf(g)
		rec.StartWindow(c.Now())
		cursors[g] = rec.CommitCursor()
		batches0 += rec.BatchCount()
	}
	commitEvents := 0

	stdruntime.GC()
	var ms0, ms1 stdruntime.MemStats
	stdruntime.ReadMemStats(&ms0)
	t0 := time.Now()
	for elapsed := time.Duration(0); elapsed < window; elapsed += 100 * time.Millisecond {
		c.RunFor(100 * time.Millisecond)
		// The cursor-consumer pattern of the public API, once per group.
		for g := 0; g < n; g++ {
			rec := c.RecorderOf(g)
			events, next, _ := rec.CommitsSince(cursors[g])
			cursors[g] = next
			commitEvents += len(events)
			rec.PruneCommittedBelow(next)
			_ = rec.LatencySummary()
		}
	}
	elapsedWall := time.Since(t0)
	stdruntime.ReadMemStats(&ms1)

	batches := -batches0
	var throughput float64
	for g := 0; g < n; g++ {
		rec := c.RecorderOf(g)
		batches += rec.BatchCount()
		topo, err := c.GroupTopo(g)
		if err != nil {
			return HotPathPoint{}, err
		}
		// Per-group probe: that group's last (non-coordinator) replica,
		// under the group's own rotation.
		probeNode, err := topo.ReplicaID(topo.NumReplicas())
		if err != nil {
			return HotPathPoint{}, err
		}
		throughput += stats.Rate(rec.CommittedEntries(probeNode), elapsedWall)
	}
	if batches == 0 {
		return HotPathPoint{}, fmt.Errorf("harness: no batches committed in sharded window %v", window)
	}
	return HotPathPoint{
		Mode:           "tcp-sharded",
		Window:         window,
		Batches:        batches,
		CommitEvents:   commitEvents,
		NsPerBatch:     float64(elapsedWall.Nanoseconds()) / float64(batches),
		AllocsPerBatch: float64(ms1.Mallocs-ms0.Mallocs) / float64(batches),
		Throughput:     throughput,
		Groups:         groups,
	}, nil
}

// measureTCPPoint runs the shared TCP measurement loop: warm-up, then
// wall-clock window slices interleaved with the cursor-consumer polling
// pattern of the public API.
func measureTCPPoint(opts Options, window time.Duration, mode string) (HotPathPoint, error) {
	c, err := New(opts)
	if err != nil {
		return HotPathPoint{}, err
	}
	c.Start()
	defer c.Stop()
	c.RunFor(500 * time.Millisecond) // warm-up (wall clock)
	c.Events.StartWindow(c.Now())

	probe := message.ReqID{Client: types.ClientID(0), ClientSeq: 1}
	batches0 := c.Events.BatchCount()
	cursor := c.Events.CommitCursor()
	commitEvents := 0

	stdruntime.GC()
	var ms0, ms1 stdruntime.MemStats
	stdruntime.ReadMemStats(&ms0)
	t0 := time.Now()
	for elapsed := time.Duration(0); elapsed < window; elapsed += 100 * time.Millisecond {
		c.RunFor(100 * time.Millisecond)
		events, next, _ := c.Events.CommitsSince(cursor)
		cursor = next
		commitEvents += len(events)
		_ = c.Events.Committed(probe)
		// The measurement loop is the replay consumer here, so it also
		// advances the committed-index watermark the way drainReplicas
		// does in the public API.
		c.Events.PruneCommittedBelow(cursor)
		_ = c.Events.LatencySummary()
	}
	elapsedWall := time.Since(t0)
	stdruntime.ReadMemStats(&ms1)

	batches := c.Events.BatchCount() - batches0
	if batches == 0 {
		return HotPathPoint{}, fmt.Errorf("harness: no batches committed in TCP hot-path window %v", window)
	}
	probeNode, err := c.Topo.ReplicaID(c.Topo.NumReplicas())
	if err != nil {
		return HotPathPoint{}, err
	}
	return HotPathPoint{
		Mode:           "cursor",
		Window:         window,
		Batches:        batches,
		CommitEvents:   commitEvents,
		NsPerBatch:     float64(elapsedWall.Nanoseconds()) / float64(batches),
		AllocsPerBatch: float64(ms1.Mallocs-ms0.Mallocs) / float64(batches),
		// Wall time, not the nominal window: RunFor slices oversleep under
		// load, and the committed count covers the real span.
		Throughput: stats.Rate(c.Events.CommittedEntries(probeNode), elapsedWall),
	}, nil
}

// FailOverPoint is one measured point of Figure 6.
type FailOverPoint struct {
	Protocol  types.Protocol
	Suite     crypto.SuiteName
	F         int
	BacklogKB int
	Latency   time.Duration
}

// RunFailOverPoint measures fail-over latency (fail-signal issuance to
// Start-tuples issuance) for SC or SCR with the given BackLog size: a
// single value-domain fault is injected at the acting coordinator.
func RunFailOverPoint(proto types.Protocol, suite crypto.SuiteName, f, backlogKB int,
	seed int64) (FailOverPoint, error) {

	if proto != types.SC && proto != types.SCR {
		return FailOverPoint{}, fmt.Errorf("harness: fail-over experiment applies to SC/SCR, not %v", proto)
	}
	opts := Options{
		Protocol:         proto,
		F:                f,
		Suite:            modelSuiteFor(proto, suite),
		BatchInterval:    100 * time.Millisecond,
		MaxBatchBytes:    1024,
		Delta:            time.Hour,
		Mirror:           true,
		DumbOptimization: proto == types.SC,
		PadBacklogBytes:  backlogKB * 1024,
		Net:              netsim.LANDefaults(),
		Seed:             seed,
	}
	c, err := New(opts)
	if err != nil {
		return FailOverPoint{}, err
	}
	c.Start()

	// Order some requests so backlogs carry real committed state.
	for i := 0; i < 5; i++ {
		if _, err := c.Submit(0, make([]byte, 100)); err != nil {
			return FailOverPoint{}, err
		}
		c.RunFor(30 * time.Millisecond)
	}
	c.RunFor(time.Second)
	if err := c.InjectCoordinatorValueFault(); err != nil {
		return FailOverPoint{}, err
	}
	c.RunFor(5 * time.Second)
	d, ok := c.Events.FailOverLatency()
	if !ok {
		return FailOverPoint{}, fmt.Errorf("harness: fail-over did not complete for %v/%v", proto, suite)
	}
	return FailOverPoint{Protocol: proto, Suite: suite, F: f, BacklogKB: backlogKB, Latency: d}, nil
}
