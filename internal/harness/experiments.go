package harness

import (
	"fmt"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
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
		Protocol:      proto,
		F:             f,
		Suite:         modelSuiteFor(proto, suite),
		BatchInterval: interval,
		MaxBatchBytes: 1024,
		Delta:         time.Hour, // fail-free run: timing checks must never fire
		Mirror:        proto == types.SC || proto == types.SCR,
		Net:           netsim.LANDefaults(),
		Seed:          seed,
		Load:          LoadFor(interval, 1024),
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
		Protocol:        proto,
		F:               f,
		Suite:           modelSuiteFor(proto, suite),
		BatchInterval:   100 * time.Millisecond,
		MaxBatchBytes:   1024,
		Delta:           time.Hour,
		Mirror:          true,
		PadBacklogBytes: backlogKB * 1024,
		Net:             netsim.LANDefaults(),
		Seed:            seed,
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
