package harness

import (
	"strings"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/types"
)

func TestRecorderLatencyWindow(t *testing.T) {
	r := NewRecorder(false, 0)
	t0 := time.Unix(0, 0)
	// A pre-window batch commits inside the window: not sampled.
	r.OnBatched(core.BatchEvent{View: 1, FirstSeq: 1, At: t0})
	r.StartWindow(t0.Add(time.Second))
	r.OnCommit(core.CommitEvent{Node: 0, View: 1, Kind: message.SubjectBatch,
		FirstSeq: 1, LastSeq: 1, Entries: make([]message.OrderEntry, 1), At: t0.Add(2 * time.Second)})
	if got := r.LatencySummary().Count; got != 0 {
		t.Errorf("pre-window batch sampled: %d", got)
	}
	// An in-window batch: sampled once (first commit only).
	r.OnBatched(core.BatchEvent{View: 1, FirstSeq: 2, At: t0.Add(3 * time.Second)})
	r.OnCommit(core.CommitEvent{Node: 0, View: 1, Kind: message.SubjectBatch,
		FirstSeq: 2, LastSeq: 2, At: t0.Add(3*time.Second + 30*time.Millisecond)})
	r.OnCommit(core.CommitEvent{Node: 1, View: 1, Kind: message.SubjectBatch,
		FirstSeq: 2, LastSeq: 2, At: t0.Add(3*time.Second + 90*time.Millisecond)})
	sum := r.LatencySummary()
	if sum.Count != 1 || sum.Mean != 30*time.Millisecond {
		t.Errorf("summary = %+v, want one 30ms sample", sum)
	}
}

func TestRecorderThroughputPerNode(t *testing.T) {
	r := NewRecorder(false, 0)
	t0 := time.Unix(0, 0)
	r.StartWindow(t0)
	r.OnCommit(core.CommitEvent{Node: 3, Kind: message.SubjectBatch, FirstSeq: 1, LastSeq: 2,
		Entries: make([]message.OrderEntry, 2), At: t0.Add(time.Second)})
	r.OnCommit(core.CommitEvent{Node: 3, Kind: message.SubjectBatch, FirstSeq: 3, LastSeq: 3,
		Entries: make([]message.OrderEntry, 1), At: t0.Add(2 * time.Second)})
	r.OnCommit(core.CommitEvent{Node: 4, Kind: message.SubjectBatch, FirstSeq: 1, LastSeq: 2,
		Entries: make([]message.OrderEntry, 2), At: t0.Add(time.Second)})
	if got := r.CommittedEntries(3); got != 3 {
		t.Errorf("CommittedEntries(3) = %d, want 3", got)
	}
	if got := r.CommittedEntries(4); got != 2 {
		t.Errorf("CommittedEntries(4) = %d, want 2", got)
	}
}

func TestRecorderFailOverLatency(t *testing.T) {
	r := NewRecorder(false, 0)
	t0 := time.Unix(0, 0)
	if _, ok := r.FailOverLatency(); ok {
		t.Error("fail-over latency with no events")
	}
	r.OnFailSignal(core.FailSignalEvent{Node: 5, Pair: 1, Emitter: false, At: t0.Add(time.Second)})
	if _, ok := r.FailOverLatency(); ok {
		t.Error("receipt events must not start the clock")
	}
	r.OnFailSignal(core.FailSignalEvent{Node: 5, Pair: 1, Emitter: true, At: t0.Add(2 * time.Second)})
	r.OnStartTuplesIssued(core.InstallEvent{Node: 1, Rank: 2, At: t0.Add(2*time.Second + 150*time.Millisecond)})
	d, ok := r.FailOverLatency()
	if !ok || d != 150*time.Millisecond {
		t.Errorf("fail-over latency = %v, %v; want 150ms", d, ok)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{Protocol: types.SC}.withDefaults()
	k := o.knobs()
	if o.F != 2 || o.Suite != crypto.HMACSHA256 || k.BatchInterval != 100*time.Millisecond ||
		k.MaxBatchBytes != 1024 || k.Delta != 5*time.Second || o.NumClients != 1 {
		t.Errorf("defaults = %+v, knobs %+v", o, k)
	}
	if scr := (Options{Protocol: types.SCR}).knobs(); scr.RecoveryInterval == 0 {
		t.Error("SCR default recovery interval not set")
	}
}

func TestLoadForKeepsBatchesFull(t *testing.T) {
	for _, interval := range PaperIntervals {
		spec := LoadFor(interval, 1024)
		if spec.Interval <= 0 || spec.RequestBytes <= 0 {
			t.Fatalf("LoadFor(%v) = %+v", interval, spec)
		}
		perInterval := float64(interval) / float64(spec.Interval)
		bytesPerInterval := perInterval * float64(spec.RequestBytes)
		if bytesPerInterval < 1024 {
			t.Errorf("LoadFor(%v): %0.f bytes per interval < batch capacity", interval, bytesPerInterval)
		}
	}
}

func TestClusterRejectsUnknownClient(t *testing.T) {
	c, err := New(Options{Protocol: types.SC, Net: netsim.LANDefaults()})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	if _, err := c.Submit(99, []byte("x")); err == nil {
		t.Error("Submit to unknown client: want error")
	}
}

func TestRunLatencyThroughputPointSmoke(t *testing.T) {
	pt, err := RunLatencyThroughputPoint(types.CT, crypto.MD5RSA1024, 1,
		50*time.Millisecond, 2*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Latency.Count == 0 || pt.Throughput <= 0 {
		t.Errorf("point = %+v", pt)
	}
}

func TestRunFailOverPointSmoke(t *testing.T) {
	pt, err := RunFailOverPoint(types.SC, crypto.MD5RSA1024, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Latency <= 0 {
		t.Errorf("fail-over latency = %v", pt.Latency)
	}
	if _, err := RunFailOverPoint(types.BFT, crypto.MD5RSA1024, 2, 1, 1); err == nil {
		t.Error("fail-over point for BFT: want error")
	}
}

func TestFailOverLatencyGrowsWithBacklog(t *testing.T) {
	small, err := RunFailOverPoint(types.SC, crypto.MD5RSA1024, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunFailOverPoint(types.SC, crypto.MD5RSA1024, 2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if large.Latency <= small.Latency {
		t.Errorf("fail-over latency not increasing with backlog: 1KB=%v 5KB=%v",
			small.Latency, large.Latency)
	}
}

// TestRecorderForgetsCommittedBatches: a batch's formation time is kept
// only until its first commit, so over 1,000 batches on the simulator the
// recorder's batchedAt never holds more than the primary's in-flight
// window, while every first commit is still counted and sampled.
func TestRecorderForgetsCommittedBatches(t *testing.T) {
	const window, batches = 4, 1000
	c, err := New(Options{
		Protocol: types.SC, F: 1, Net: netsim.LANDefaults(),
		BatchInterval: 5 * time.Millisecond, MaxBatchBytes: 1024, MaxInflightBatches: window,
		NumClients: 1, Load: &LoadSpec{RequestBytes: 128, Interval: 20 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	r := c.Events
	held := func() int {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.batchedAt)
	}
	peak := 0
	deadline := c.Now().Add(time.Minute)
	for r.BatchCount() < batches {
		if c.Now().After(deadline) {
			t.Fatalf("only %d batches committed in a virtual minute", r.BatchCount())
		}
		c.RunFor(100 * time.Microsecond)
		peak = max(peak, held())
	}
	if peak == 0 || peak > window {
		t.Errorf("batchedAt held at most %d batches at once, want 1 to the in-flight window of %d", peak, window)
	}
	if n := r.LatencySummary().Count; n != r.BatchCount() {
		t.Errorf("%d latency samples for %d first commits", n, r.BatchCount())
	}
}

// TestOrderViolationsReportDoubleOrdering: the campaign's order check
// flags a request committed at two sequence numbers, even where every
// sequence number maps to one request.
func TestOrderViolationsReportDoubleOrdering(t *testing.T) {
	r := NewRecorder(true, 0)
	for node := range 2 {
		for seq := 1; seq <= 2; seq++ {
			ev := commitAt(seq)
			ev.Node = types.NodeID(node)
			ev.Entries[0].Req = reqID(1) // the same request at seq 1 and 2
			r.OnCommit(ev)
		}
	}
	got := orderViolationsIn(r, nil)
	if len(got) != 2 || !strings.Contains(got[0], "ordered twice") {
		t.Fatalf("violations = %q, want request 0/1 ordered twice, once per process", got)
	}
	if got := orderViolationsIn(NewRecorder(true, 0), nil); len(got) != 0 {
		t.Fatalf("violations on no commits = %q", got)
	}
}
