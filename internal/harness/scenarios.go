package harness

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/types"
)

// The scripted chaos/soak campaign: every scenario builds a real-TCP
// cluster, drives open-loop client load while injecting its fault schedule
// (WAN link profiles, partitions, restart storms, adversarial twins), then
// asserts the protocol's safety and liveness invariants:
//
//   - single total order: no two honest replicas commit different requests
//     at the same sequence number;
//   - zero committed-request loss: every submitted request is committed by
//     the drain deadline, across kills, partitions and fail-overs;
//   - fail-over completes whenever a scenario disables a coordinator pair
//     member (and never fires when no fault was injected);
//   - digest chains agree: durable scenarios compare the running
//     committed-order chain digest of any two processes standing at the
//     same watermark.
//
// Everything random — netsim jitter, which node a storm kills first, which
// pair member the paired-restart scenario takes down, the replayer's choice
// of stale message — derives from one campaign seed, so a failing campaign
// replays exactly with `sofbench -scenarios -seed N`.

// CampaignOptions configures a scenario campaign run.
type CampaignOptions struct {
	// Seed drives every random choice in the campaign (0 = 1).
	Seed int64
	// Smoke runs the short CI subset: one WAN profile, one adversary, one
	// restart storm, one sharded pair partition.
	Smoke bool
	// DataDir is scratch space for the durable scenarios' WAL stores
	// (empty = a fresh temp dir).
	DataDir string
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// ScenarioPoint is one scenario's recorded series entry.
type ScenarioPoint struct {
	Name            string  `json:"name"`
	Series          string  `json:"series"`
	Seed            int64   `json:"seed"`
	Profile         string  `json:"net_profile,omitempty"`
	Adversary       string  `json:"adversary,omitempty"`
	DurationSec     float64 `json:"duration_sec"`
	Submitted       int     `json:"submitted"`
	Committed       int     `json:"committed"`
	Lost            int     `json:"lost"`
	CommittedPerSec float64 `json:"committed_per_sec"`
	MeanLatencyMS   float64 `json:"mean_latency_ms"`
	P99LatencyMS    float64 `json:"p99_latency_ms"`
	FailSignals     int     `json:"fail_signals"`
	FailOvers       int     `json:"fail_overs"`
	FailOverMS      float64 `json:"fail_over_ms,omitempty"`
	PairRecoveries  int     `json:"pair_recoveries,omitempty"`
	Restarts        int     `json:"restarts,omitempty"`
	AdvMatched      int64   `json:"adversary_matched,omitempty"`
	AdvInjected     int64   `json:"adversary_injected,omitempty"`
	AdvDropped      int64   `json:"adversary_dropped,omitempty"`

	// Ingress fields (overload-brownout scenario): admission outcomes
	// summed over the order processes, the greedy client's Rejected
	// replies, its commit count, and whether the brownout gauge was seen
	// raised during the run.
	IngressShed     uint64 `json:"ingress_shed,omitempty"`
	IngressAdmitted uint64 `json:"ingress_admitted,omitempty"`
	RejectedReplies uint64 `json:"rejected_replies,omitempty"`
	GreedyCommitted int    `json:"greedy_committed,omitempty"`
	BrownoutSeen    bool   `json:"brownout_seen,omitempty"`

	Violations []string `json:"violations,omitempty"`
}

// CampaignReport is the BENCH_scenarios.json payload.
type CampaignReport struct {
	GeneratedBy string          `json:"generated_by"`
	Seed        int64           `json:"seed"`
	Smoke       bool            `json:"smoke,omitempty"`
	Scenarios   []ScenarioPoint `json:"scenarios"`
}

// RunScenarioCampaign runs the scripted campaign and returns the recorded
// series. The returned error is non-nil when any scenario violated an
// invariant; the report still carries every point (violations included)
// so the caller can persist it for diagnosis.
func RunScenarioCampaign(opts CampaignOptions) (CampaignReport, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dataDir := opts.DataDir
	if dataDir == "" {
		d, err := os.MkdirTemp("", "sof-scenarios-*")
		if err != nil {
			return CampaignReport{}, err
		}
		defer os.RemoveAll(d)
		dataDir = d
	}
	g := &campaign{
		rng:     rand.New(rand.NewSource(opts.Seed)),
		seed:    opts.Seed,
		dataDir: dataDir,
		logf:    logf,
	}
	logf("scenario campaign: seed=%d (replay with -scenarios -seed %d)", opts.Seed, opts.Seed)

	report := CampaignReport{
		GeneratedBy: "sofbench -scenarios",
		Seed:        opts.Seed,
		Smoke:       opts.Smoke,
	}
	if opts.Smoke {
		report.Scenarios = append(report.Scenarios,
			g.wanSweep("wan", 2*time.Second),
			g.adversaryEquivocation(4*time.Second),
			g.restartStorm(1, 5*time.Second),
			g.shardedPartition(6*time.Second),
			g.overloadBrownout(4*time.Second),
		)
	} else {
		for _, profile := range netsim.ProfileNames() {
			report.Scenarios = append(report.Scenarios, g.wanSweep(profile, 4*time.Second))
		}
		report.Scenarios = append(report.Scenarios,
			g.partitionCutHeal(6*time.Second),
			g.restartStorm(2, 8*time.Second),
			g.adversaryEquivocation(6*time.Second),
			g.adversarySuppressor(8*time.Second),
			g.adversaryReplayer(7*time.Second),
			g.adversaryLiar(8*time.Second),
			g.pairedRestart(10*time.Second),
			g.shardedPartition(9*time.Second),
			g.overloadBrownout(6*time.Second),
		)
	}

	var failed []string
	for _, pt := range report.Scenarios {
		for _, v := range pt.Violations {
			failed = append(failed, fmt.Sprintf("%s: %s", pt.Name, v))
		}
	}
	if len(failed) > 0 {
		return report, fmt.Errorf("scenario invariants violated (replay with -scenarios -seed %d):\n  %s",
			opts.Seed, strings.Join(failed, "\n  "))
	}
	return report, nil
}

type campaign struct {
	rng     *rand.Rand
	seed    int64
	dataDir string
	logf    func(string, ...any)
}

// scenarioSeed derives the next scenario's seed; scenarios run in a fixed
// order, so the derivation is deterministic per campaign seed.
func (g *campaign) scenarioSeed() int64 { return g.rng.Int63() }

// baseOptions is the common scenario cluster shape: a real-TCP SC f=1
// deployment with the named link profile shaped onto the sockets and a
// Delta far beyond any honest delay (scenarios that want time-domain
// fail-over lower it).
func baseOptions(profile string, seed int64) Options {
	net, ok := netsim.Profile(profile)
	if !ok {
		net = netsim.LANDefaults()
	}
	return Options{
		Protocol:      types.SC,
		F:             1,
		BatchInterval: 25 * time.Millisecond,
		MaxBatchBytes: 4096,
		Delta:         time.Hour,
		Mirror:        true,
		Net:           net,
		Seed:          seed,
		Live:          true,
		Transport:     types.TransportTCP,
		TCPShaping:    true,
		KeepCommits:   true,
	}
}

// durableOptions layers WAL-backed checkpoints and session journals on
// top, so nodes may be killed and restarted mid-scenario.
func (g *campaign) durableOptions(profile, name string, seed int64) (Options, error) {
	o := baseOptions(profile, seed)
	dir := filepath.Join(g.dataDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return o, err
	}
	o.Durable = true
	o.DataDir = dir
	o.CheckpointInterval = 8
	return o, nil
}

// actionAt is one scheduled fault-injection step.
type actionAt struct {
	at   time.Duration
	name string
	fn   func() error
}

const scenarioRequestBytes = 128

// driveScenario pumps one request every interval from client 0 for total,
// round-robin across every ordering group (identical payloads would all
// hash to one group through the public router, so the spread is explicit
// here), firing scheduled actions at their offsets. It returns the tracked
// request IDs per group and any action errors.
func driveScenario(c *Cluster, total, interval time.Duration, actions []actionAt) ([][]message.ReqID, []string) {
	payload := make([]byte, scenarioRequestBytes)
	tracked := make([][]message.ReqID, c.GroupCount())
	var errs []string
	fire := func(a actionAt) {
		if err := a.fn(); err != nil {
			errs = append(errs, fmt.Sprintf("action %s: %v", a.name, err))
		}
	}
	start := time.Now()
	next, turn := 0, 0
	for {
		elapsed := time.Since(start)
		if elapsed >= total {
			break
		}
		for next < len(actions) && elapsed >= actions[next].at {
			fire(actions[next])
			next++
		}
		gi := turn % len(tracked)
		turn++
		if id, err := c.SubmitToGroup(0, gi, payload); err == nil {
			tracked[gi] = append(tracked[gi], id)
		} else {
			errs = append(errs, fmt.Sprintf("submit g%d: %v", gi, err))
		}
		time.Sleep(interval)
	}
	for ; next < len(actions); next++ {
		fire(actions[next])
	}
	return tracked, errs
}

// orderViolations checks the single-total-order invariant: across the
// commit events of every non-excluded process, a sequence number maps to
// exactly one request.
func orderViolations(c *Cluster, exclude map[types.NodeID]bool) []string {
	return orderViolationsIn(c.Events, exclude)
}

// orderViolationsIn is orderViolations against one recorder — in a sharded
// cluster each ordering group keeps its own sequence space, so the
// invariant holds per group recorder, not across them. It also reports a
// request committed at two different sequence numbers: ordered twice.
func orderViolationsIn(rec *Recorder, exclude map[types.NodeID]bool) []string {
	type at struct {
		seq  types.Seq
		req  message.ReqID
		node types.NodeID
	}
	bySeq := make(map[types.Seq]at)
	byReq := make(map[message.ReqID]at)
	var out []string
	for _, ev := range rec.Commits() {
		if exclude[ev.Node] {
			continue
		}
		for i, e := range ev.Entries {
			here := at{seq: ev.FirstSeq + types.Seq(i), req: e.Req, node: ev.Node}
			if prev, ok := bySeq[here.seq]; !ok {
				bySeq[here.seq] = here
			} else if prev.req != here.req {
				out = append(out, fmt.Sprintf(
					"order divergence at seq %d: node %v committed %d/%d, node %v committed %d/%d",
					here.seq, prev.node, prev.req.Client, prev.req.ClientSeq, here.node, here.req.Client, here.req.ClientSeq))
			}
			if prev, ok := byReq[here.req]; !ok {
				byReq[here.req] = here
			} else if prev.seq != here.seq {
				out = append(out, fmt.Sprintf(
					"request %d/%d ordered twice: node %v committed it at seq %d, node %v at seq %d",
					here.req.Client, here.req.ClientSeq, prev.node, prev.seq, here.node, here.seq))
			}
		}
	}
	return out
}

// digestViolations compares the committed-order chain digests of processes
// standing at the same watermark (durable clusters only — the chain digest
// needs a Checkpointer).
func digestViolations(c *Cluster, exclude map[types.NodeID]bool) []string {
	type snap struct {
		dig  string
		node types.NodeID
	}
	byWM := make(map[types.Seq]snap)
	var out []string
	for _, id := range c.Topo.AllProcesses() {
		if exclude[id] {
			continue
		}
		st, ok := c.RecoveryStateOf(id)
		if !ok || len(st.OrderDigest) == 0 {
			continue
		}
		dig := hex.EncodeToString(st.OrderDigest)
		if prev, ok := byWM[st.DeliveredUpTo]; ok {
			if prev.dig != dig {
				out = append(out, fmt.Sprintf(
					"digest divergence at watermark %d: node %v vs node %v",
					st.DeliveredUpTo, prev.node, id))
			}
			continue
		}
		byWM[st.DeliveredUpTo] = snap{dig: dig, node: id}
	}
	return out
}

// finishScenario runs the universal invariant checks and fills the
// point's metrics. Callers append scenario-specific checks afterwards.
func finishScenario(c *Cluster, pt *ScenarioPoint, tracked []message.ReqID,
	loadDur, drain time.Duration, exclude map[types.NodeID]bool, expectFailOver bool) {
	missing := c.AwaitCommit(drain, tracked...)
	pt.Submitted = len(tracked)
	pt.Committed = len(tracked) - missing
	pt.Lost = missing
	if missing > 0 {
		pt.Violations = append(pt.Violations, fmt.Sprintf(
			"request loss: %d of %d submitted requests never committed", missing, len(tracked)))
	}
	pt.Violations = append(pt.Violations, orderViolations(c, exclude)...)
	if c.Opts.Durable {
		pt.Violations = append(pt.Violations, digestViolations(c, exclude)...)
	}

	pt.DurationSec = loadDur.Seconds()
	if s := loadDur.Seconds(); s > 0 {
		pt.CommittedPerSec = float64(pt.Committed) / s
	}
	sum := c.Events.LatencySummary()
	pt.MeanLatencyMS = float64(sum.Mean) / float64(time.Millisecond)
	pt.P99LatencyMS = float64(sum.P99) / float64(time.Millisecond)

	emitted := 0
	for _, ev := range c.Events.FailSignals() {
		if ev.Emitter {
			emitted++
		}
	}
	pt.FailSignals = emitted
	maxRank := types.Rank(1)
	for _, ev := range c.Events.Installs() {
		if ev.Rank > maxRank {
			maxRank = ev.Rank
		}
	}
	pt.FailOvers = int(maxRank - 1)
	if d, ok := c.Events.FailOverLatency(); ok {
		pt.FailOverMS = float64(d) / float64(time.Millisecond)
	}
	pt.PairRecoveries = len(c.Events.Recoveries())

	// Fail-over completion is asserted on the nodes' sof_failovers_total
	// registry counters (the same series /metrics exports), not the
	// recorder's event log: an honest node increments the counter exactly
	// when it installs a post-fail-signal regime, and the counters
	// survive restarts, so what the assertion sees is what an operator's
	// scrape would see. The recorder-derived numbers above stay in the
	// report for diagnosis.
	failedOver := registryFailovers(c, exclude) > 0
	if expectFailOver && !failedOver {
		pt.Violations = append(pt.Violations, "fail-over never completed")
	}
	if !expectFailOver {
		if failedOver {
			pt.Violations = append(pt.Violations, fmt.Sprintf("unexpected fail-over to rank %d", maxRank))
		}
		if emitted > 0 {
			pt.Violations = append(pt.Violations, fmt.Sprintf("unexpected fail-signals: %d", emitted))
		}
	}

	for id := range exclude {
		if kind, st, ok := c.Adversary(id); ok {
			pt.Adversary = string(kind)
			pt.AdvMatched += st.Matched
			pt.AdvInjected += st.Injected
			pt.AdvDropped += st.Dropped
		}
	}
}

// registryFailovers sums completed fail-overs over the non-excluded
// order processes' sof_failovers_total counters (group 0).
func registryFailovers(c *Cluster, exclude map[types.NodeID]bool) uint64 {
	var max uint64
	for _, id := range c.Topo.AllProcesses() {
		if exclude[id] {
			continue
		}
		// Every process that completes the install increments its own
		// counter; the cluster-wide completion count is the max, not the
		// sum, across them.
		if v := uint64(c.Metric(id, 0, "sof_failovers_total")); v > max {
			max = v
		}
	}
	return max
}

func (g *campaign) report(pt ScenarioPoint) ScenarioPoint {
	status := "ok"
	if len(pt.Violations) > 0 {
		status = "FAILED: " + strings.Join(pt.Violations, "; ")
	}
	g.logf("  %-38s %5d committed (%6.1f/s)  fail-overs=%d  %s",
		pt.Name, pt.Committed, pt.CommittedPerSec, pt.FailOvers, status)
	return pt
}

func failedPoint(pt ScenarioPoint, err error) ScenarioPoint {
	pt.Violations = append(pt.Violations, fmt.Sprintf("scenario setup: %v", err))
	return pt
}

// --- scenarios ---

// wanSweep runs fail-free load over one link profile.
func (g *campaign) wanSweep(profile string, dur time.Duration) ScenarioPoint {
	pt := ScenarioPoint{Name: "wan-sweep/" + profile, Series: "wan-sweep", Profile: profile, Seed: g.scenarioSeed()}
	c, err := New(baseOptions(profile, pt.Seed))
	if err != nil {
		return g.report(failedPoint(pt, err))
	}
	c.Start()
	defer c.Stop()
	c.Events.StartWindow(time.Now())
	tracked, errs := driveScenario(c, dur, 5*time.Millisecond, nil)
	pt.Violations = append(pt.Violations, errs...)
	finishScenario(c, &pt, tracked[0], dur, 8*time.Second, nil, false)
	return g.report(pt)
}

// partitionCutHeal cuts the link between two non-coordinator replicas
// mid-run and heals it; commits must continue through the remaining
// quorum and nothing may be lost.
func (g *campaign) partitionCutHeal(dur time.Duration) ScenarioPoint {
	pt := ScenarioPoint{Name: "partition/cut-heal", Series: "partition", Profile: "wan", Seed: g.scenarioSeed()}
	c, err := New(baseOptions("wan", pt.Seed))
	if err != nil {
		return g.report(failedPoint(pt, err))
	}
	c.Start()
	defer c.Stop()
	p2, _ := c.Topo.ReplicaID(2)
	p3, _ := c.Topo.ReplicaID(3)
	actions := []actionAt{
		{at: dur / 4, name: "cut p2-p3", fn: func() error { c.Fabric.Cut(p2, p3); return nil }},
		{at: dur * 3 / 5, name: "heal p2-p3", fn: func() error { c.Fabric.Heal(p2, p3); return nil }},
	}
	c.Events.StartWindow(time.Now())
	tracked, errs := driveScenario(c, dur, 5*time.Millisecond, actions)
	pt.Violations = append(pt.Violations, errs...)
	finishScenario(c, &pt, tracked[0], dur, 10*time.Second, nil, false)
	return g.report(pt)
}

// restartStorm kills and restarts non-coordinator replicas sequentially
// under load (durable cluster); restarted nodes must catch up and nothing
// may be lost. The kill order is a seeded choice.
func (g *campaign) restartStorm(kills int, dur time.Duration) ScenarioPoint {
	pt := ScenarioPoint{Name: "restart-storm", Series: "restart-storm", Profile: "lan", Seed: g.scenarioSeed()}
	opts, err := g.durableOptions("lan", "restart-storm", pt.Seed)
	if err != nil {
		return g.report(failedPoint(pt, err))
	}
	c, err := New(opts)
	if err != nil {
		return g.report(failedPoint(pt, err))
	}
	c.Start()
	defer c.Stop()

	p2, _ := c.Topo.ReplicaID(2)
	p3, _ := c.Topo.ReplicaID(3)
	victims := []types.NodeID{p2, p3}
	rng := rand.New(rand.NewSource(pt.Seed))
	rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	if kills > len(victims) {
		kills = len(victims)
	}
	var actions []actionAt
	// Sequential kill/restart windows, never two nodes down at once: the
	// n-f quorum needs 3 of the 4 processes.
	slot := dur / time.Duration(2*kills+1)
	for i := 0; i < kills; i++ {
		v := victims[i]
		actions = append(actions,
			actionAt{at: slot * time.Duration(2*i+1), name: fmt.Sprintf("kill %v", v),
				fn: func() error { return c.KillNode(v) }},
			actionAt{at: slot * time.Duration(2*i+2), name: fmt.Sprintf("restart %v", v),
				fn: func() error { return c.RestartNode(v) }},
		)
	}
	pt.Restarts = kills

	c.Events.StartWindow(time.Now())
	tracked, errs := driveScenario(c, dur, 5*time.Millisecond, actions)
	pt.Violations = append(pt.Violations, errs...)
	for i := 0; i < kills; i++ {
		if v := victims[i]; !awaitCaughtUp(c, v, 12*time.Second) {
			pt.Violations = append(pt.Violations, fmt.Sprintf("node %v still catching up after restart", v))
		}
	}
	finishScenario(c, &pt, tracked[0], dur, 12*time.Second, nil, false)
	return g.report(pt)
}

// shardedPartition cuts the physical link under group 0's coordinator pair
// mid-load on a 3-group cluster. All groups share those TCP endpoints, but
// only group 0's pair straddles the cut link, so exactly group 0 must fail
// over to its next candidate pair — the other groups keep committing
// straight through the cut — and after the heal every tracked request has
// committed in its home group, each group holding its own single total
// order.
func (g *campaign) shardedPartition(dur time.Duration) ScenarioPoint {
	const groups = 3
	pt := ScenarioPoint{Name: "sharded/pair-partition", Series: "sharded", Profile: "lan", Seed: g.scenarioSeed()}
	opts := baseOptions("lan", pt.Seed)
	opts.Groups = groups
	// Low enough that the cut span (35% of dur) comfortably exceeds the
	// time-domain expectation, so the pair silence is detected while the
	// link is still down.
	opts.Delta = time.Second
	c, err := New(opts)
	if err != nil {
		return g.report(failedPoint(pt, err))
	}
	c.Start()
	defer c.Stop()

	topo0, _ := c.GroupTopo(0)
	p1, _ := topo0.ReplicaID(1)
	s1, _ := topo0.ShadowID(1)
	var atCut [groups]int
	actions := []actionAt{
		{at: dur / 4, name: "cut g0 pair link", fn: func() error {
			c.Fabric.Cut(p1, s1)
			for gi := 0; gi < groups; gi++ {
				atCut[gi] = c.RecorderOf(gi).BatchCount()
			}
			return nil
		}},
		{at: dur * 3 / 5, name: "heal g0 pair link", fn: func() error {
			// Liveness through the cut: the unaffected groups must have
			// committed fresh batches while group 0's pair was severed.
			for gi := 1; gi < groups; gi++ {
				if c.RecorderOf(gi).BatchCount() <= atCut[gi] {
					return fmt.Errorf("group %d stalled during group 0's pair partition", gi)
				}
			}
			c.Fabric.Heal(p1, s1)
			return nil
		}},
	}

	for gi := 0; gi < groups; gi++ {
		c.RecorderOf(gi).StartWindow(time.Now())
	}
	tracked, errs := driveScenario(c, dur, 5*time.Millisecond, actions)
	pt.Violations = append(pt.Violations, errs...)

	// Per-group drain and invariants: zero loss and a single total order
	// within each group's own sequence space.
	for gi := 0; gi < groups; gi++ {
		rec := c.RecorderOf(gi)
		missing := c.AwaitCommit(15*time.Second, tracked[gi]...)
		pt.Submitted += len(tracked[gi])
		pt.Committed += len(tracked[gi]) - missing
		pt.Lost += missing
		if missing > 0 {
			pt.Violations = append(pt.Violations, fmt.Sprintf(
				"group %d lost %d of %d requests", gi, missing, len(tracked[gi])))
		}
		pt.Violations = append(pt.Violations, orderViolationsIn(rec, nil)...)

		emitted := 0
		for _, ev := range rec.FailSignals() {
			if ev.Emitter {
				emitted++
			}
		}
		pt.FailSignals += emitted
		maxRank := types.Rank(1)
		for _, ev := range rec.Installs() {
			if ev.Rank > maxRank {
				maxRank = ev.Rank
			}
		}
		if gi == 0 {
			pt.FailOvers = int(maxRank - 1)
			if maxRank == 1 {
				pt.Violations = append(pt.Violations,
					"group 0 never failed over despite its severed pair")
			}
			if d, ok := rec.FailOverLatency(); ok {
				pt.FailOverMS = float64(d) / float64(time.Millisecond)
			}
		} else if maxRank > 1 {
			pt.Violations = append(pt.Violations, fmt.Sprintf(
				"group %d failed over (rank %d) though its pair was never cut", gi, maxRank))
		}
	}
	pt.DurationSec = dur.Seconds()
	if s := dur.Seconds(); s > 0 {
		pt.CommittedPerSec = float64(pt.Committed) / s
	}
	// Latency from the partitioned group: it carries the fail-over stall.
	sum := c.RecorderOf(0).LatencySummary()
	pt.MeanLatencyMS = float64(sum.Mean) / float64(time.Millisecond)
	pt.P99LatencyMS = float64(sum.P99) / float64(time.Millisecond)
	return g.report(pt)
}

// awaitCaughtUp watches a restarted node's group-0 process until it
// leaves restart catch-up: one atomic load per poll, off the event loop
// entirely, so the probe can run tight without perturbing the node it
// watches. RestartNode makes the new incarnation current before it
// returns, and core.New raises the flag before that.
func awaitCaughtUp(c *Cluster, id types.NodeID, deadline time.Duration) bool {
	for end := time.Now().Add(deadline); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if p := c.SCProcess(id); p != nil && !p.CatchingUp() {
			return true
		}
	}
	return false
}

// adversaryEquivocation installs the equivocating primary on p1: the
// shadow must refuse the conflicting twin (value-domain fail), fail-over
// must complete, and no honest replica may commit the twin.
func (g *campaign) adversaryEquivocation(dur time.Duration) ScenarioPoint {
	pt := ScenarioPoint{Name: "adversary/equivocating-primary", Series: "adversary", Profile: "lan",
		Adversary: string(AdversaryEquivocatingPrimary), Seed: g.scenarioSeed()}
	opts := baseOptions("lan", pt.Seed)
	opts.Delta = 2 * time.Second
	p1, _ := types.Topology{Protocol: types.SC, F: 1}.ReplicaID(1)
	opts.Adversaries = map[types.NodeID]AdversaryKind{p1: AdversaryEquivocatingPrimary}
	c, err := New(opts)
	if err != nil {
		return g.report(failedPoint(pt, err))
	}
	c.Start()
	defer c.Stop()
	c.Events.StartWindow(time.Now())
	tracked, errs := driveScenario(c, dur, 5*time.Millisecond, nil)
	pt.Violations = append(pt.Violations, errs...)
	exclude := map[types.NodeID]bool{p1: true}
	finishScenario(c, &pt, tracked[0], dur, 12*time.Second, exclude, true)
	if pt.AdvMatched == 0 {
		pt.Violations = append(pt.Violations, "equivocator never fired")
	}
	shadowSignalled := false
	for _, ev := range c.Events.FailSignals() {
		if ev.Emitter && ev.Pair == 1 {
			shadowSignalled = true
		}
	}
	if !shadowSignalled {
		pt.Violations = append(pt.Violations, "no fail-signal for the equivocating pair")
	}
	return g.report(pt)
}

// adversarySuppressor installs the signal-suppressing shadow on p'1 and
// injects a primary value fault: the shadow detects it but its fail-signal
// is suppressed, so fail-over must complete through the primary's own
// time-domain expectation instead.
func (g *campaign) adversarySuppressor(dur time.Duration) ScenarioPoint {
	pt := ScenarioPoint{Name: "adversary/signal-suppressing-shadow", Series: "adversary", Profile: "lan",
		Adversary: string(AdversarySignalSuppressor), Seed: g.scenarioSeed()}
	opts := baseOptions("lan", pt.Seed)
	opts.Delta = 1500 * time.Millisecond
	topo := types.Topology{Protocol: types.SC, F: 1}
	s1, _ := topo.ShadowID(1)
	p1, _ := topo.ReplicaID(1)
	opts.Adversaries = map[types.NodeID]AdversaryKind{s1: AdversarySignalSuppressor}
	c, err := New(opts)
	if err != nil {
		return g.report(failedPoint(pt, err))
	}
	c.Start()
	defer c.Stop()
	actions := []actionAt{
		{at: dur / 5, name: "primary value fault", fn: c.InjectCoordinatorValueFault},
	}
	c.Events.StartWindow(time.Now())
	tracked, errs := driveScenario(c, dur, 5*time.Millisecond, actions)
	pt.Violations = append(pt.Violations, errs...)
	exclude := map[types.NodeID]bool{s1: true}
	finishScenario(c, &pt, tracked[0], dur, 15*time.Second, exclude, true)
	if pt.AdvDropped == 0 {
		pt.Violations = append(pt.Violations, "suppressor never dropped a fail-signal")
	}
	primarySignalled := false
	for _, ev := range c.Events.FailSignals() {
		if ev.Emitter && ev.Node == p1 {
			primarySignalled = true
		}
	}
	if !primarySignalled {
		pt.Violations = append(pt.Violations,
			"fail-over did not route through the primary's time-domain check")
	}
	return g.report(pt)
}

// adversaryReplayer installs the stale-epoch replayer on p2 and restarts
// it mid-run: the tap survives the restart, so post-restart traffic is
// interleaved with genuinely pre-restart messages. Everything must be
// absorbed idempotently — no fail-over, no loss.
func (g *campaign) adversaryReplayer(dur time.Duration) ScenarioPoint {
	pt := ScenarioPoint{Name: "adversary/stale-epoch-replayer", Series: "adversary", Profile: "lan",
		Adversary: string(AdversaryStaleReplayer), Seed: g.scenarioSeed()}
	opts, err := g.durableOptions("lan", "adversary-replayer", pt.Seed)
	if err != nil {
		return g.report(failedPoint(pt, err))
	}
	topo := types.Topology{Protocol: types.SC, F: 1}
	p2, _ := topo.ReplicaID(2)
	opts.Adversaries = map[types.NodeID]AdversaryKind{p2: AdversaryStaleReplayer}
	c, err := New(opts)
	if err != nil {
		return g.report(failedPoint(pt, err))
	}
	c.Start()
	defer c.Stop()
	actions := []actionAt{
		{at: dur * 3 / 10, name: "kill p2", fn: func() error { return c.KillNode(p2) }},
		{at: dur * 11 / 20, name: "restart p2", fn: func() error { return c.RestartNode(p2) }},
	}
	pt.Restarts = 1
	c.Events.StartWindow(time.Now())
	tracked, errs := driveScenario(c, dur, 5*time.Millisecond, actions)
	pt.Violations = append(pt.Violations, errs...)
	if !awaitCaughtUp(c, p2, 12*time.Second) {
		pt.Violations = append(pt.Violations, "replayer node still catching up after restart")
	}
	exclude := map[types.NodeID]bool{p2: true}
	finishScenario(c, &pt, tracked[0], dur, 12*time.Second, exclude, false)
	if pt.AdvInjected == 0 {
		pt.Violations = append(pt.Violations, "replayer never replayed a message")
	}
	return g.report(pt)
}

// adversaryLiar installs the catch-up liar on p2 and restarts honest p3:
// the liar's inflated/naked answers must be clamped to their evidence and
// p3 must finish catch-up on the honest answers without wedging.
func (g *campaign) adversaryLiar(dur time.Duration) ScenarioPoint {
	pt := ScenarioPoint{Name: "adversary/catchup-liar", Series: "adversary", Profile: "lan",
		Adversary: string(AdversaryCatchUpLiar), Seed: g.scenarioSeed()}
	opts, err := g.durableOptions("lan", "adversary-liar", pt.Seed)
	if err != nil {
		return g.report(failedPoint(pt, err))
	}
	topo := types.Topology{Protocol: types.SC, F: 1}
	p2, _ := topo.ReplicaID(2)
	p3, _ := topo.ReplicaID(3)
	opts.Adversaries = map[types.NodeID]AdversaryKind{p2: AdversaryCatchUpLiar}
	c, err := New(opts)
	if err != nil {
		return g.report(failedPoint(pt, err))
	}
	c.Start()
	defer c.Stop()
	actions := []actionAt{
		{at: dur / 5, name: "kill p3", fn: func() error { return c.KillNode(p3) }},
		{at: dur / 2, name: "restart p3", fn: func() error { return c.RestartNode(p3) }},
	}
	pt.Restarts = 1
	c.Events.StartWindow(time.Now())
	tracked, errs := driveScenario(c, dur, 5*time.Millisecond, actions)
	pt.Violations = append(pt.Violations, errs...)
	if !awaitCaughtUp(c, p3, 12*time.Second) {
		pt.Violations = append(pt.Violations, "requester wedged: p3 still catching up against the liar")
	}
	if st, ok := c.RecoveryStateOf(p3); ok {
		if st.DeliveredUpTo >= liarInflation || st.NextPropose >= liarInflation {
			pt.Violations = append(pt.Violations, fmt.Sprintf(
				"requester adopted inflated claims: delivered=%d nextPropose=%d",
				st.DeliveredUpTo, st.NextPropose))
		}
	}
	exclude := map[types.NodeID]bool{p2: true}
	finishScenario(c, &pt, tracked[0], dur, 12*time.Second, exclude, false)
	if pt.AdvMatched == 0 {
		pt.Violations = append(pt.Violations, "liar never answered a catch-up request")
	}
	return g.report(pt)
}

// pairedRestart is the ROADMAP's open restart caveat, pinned: a paired
// process (primary or shadow — seeded choice) of the acting coordinator is
// killed mid-epoch under load and later restarted. Today fail-over moves
// the regime to C2 and the restarted member rejoins with fresh fsp pair
// state, leaning on SCR recovery; the scenario records the fail-over cost
// and the pair-recovery count so regressions are visible.
func (g *campaign) pairedRestart(dur time.Duration) ScenarioPoint {
	pt := ScenarioPoint{Name: "paired-restart/mid-epoch", Series: "paired-restart", Profile: "lan",
		Seed: g.scenarioSeed()}
	opts, err := g.durableOptions("lan", "paired-restart", pt.Seed)
	if err != nil {
		return g.report(failedPoint(pt, err))
	}
	opts.Protocol = types.SCR
	opts.Delta = 1200 * time.Millisecond
	opts.RecoveryInterval = time.Second
	c, err := New(opts)
	if err != nil {
		return g.report(failedPoint(pt, err))
	}
	c.Start()
	defer c.Stop()

	rng := rand.New(rand.NewSource(pt.Seed))
	victim, _ := c.Topo.ReplicaID(1)
	role := "primary"
	if rng.Intn(2) == 1 {
		victim, _ = c.Topo.ShadowID(1)
		role = "shadow"
	}
	pt.Name += "-" + role
	actions := []actionAt{
		{at: dur * 3 / 20, name: "kill " + role, fn: func() error { return c.KillNode(victim) }},
		{at: dur * 9 / 20, name: "restart " + role, fn: func() error { return c.RestartNode(victim) }},
	}
	pt.Restarts = 1
	c.Events.StartWindow(time.Now())
	tracked, errs := driveScenario(c, dur, 5*time.Millisecond, actions)
	pt.Violations = append(pt.Violations, errs...)
	if !awaitCaughtUp(c, victim, 15*time.Second) {
		pt.Violations = append(pt.Violations, fmt.Sprintf(
			"restarted %s still catching up mid-epoch", role))
	}
	finishScenario(c, &pt, tracked[0], dur, 15*time.Second, nil, true)
	return g.report(pt)
}

// overloadBrownout floods the cluster with one greedy client (1 KB
// requests every millisecond, far past the drain rate) while three
// polite clients submit lightly, with admission control on. Expected:
// the greedy surplus is shed (rate quota first, brownout's over-share
// policy once the pool backlog crosses the high watermark), every
// polite request commits, the greedy client hears Rejected replies, and
// the brownout gauge rises under the flood and clears once the backlog
// drains.
func (g *campaign) overloadBrownout(dur time.Duration) ScenarioPoint {
	pt := ScenarioPoint{Name: "overload/brownout", Series: "overload", Profile: "wan", Seed: g.scenarioSeed()}
	opts := baseOptions("wan", pt.Seed)
	opts.NumClients = 4 // client 0 greedy, 1..3 polite
	opts.Ingress = ingress.Config{
		Enabled:      true,
		Rate:         600, // greedy offers ~1000/s: the rate quota sheds first
		RatePeriod:   time.Second,
		BrownoutHigh: 4, // ~4 batches of pool backlog trips the brownout
		BrownoutLow:  1,
		// Short TTL so the replicas' copies of shed requests are evicted
		// inside the drain window — every node, not just the proposer,
		// must leave brownout by the end.
		EvictAfter: 5 * time.Second,
	}
	c, err := New(opts)
	if err != nil {
		return g.report(failedPoint(pt, err))
	}
	c.Start()
	defer c.Stop()
	c.Events.StartWindow(time.Now())

	procs := c.Topo.AllProcesses()
	brownoutSeen := func() bool {
		for _, id := range procs {
			if c.Metric(id, 0, "sof_ingress_brownout") != 0 {
				return true
			}
		}
		return false
	}

	greedyPayload := make([]byte, 1024)
	politePayload := make([]byte, scenarioRequestBytes)
	var polite, greedy []message.ReqID
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		if id, err := c.Submit(0, greedyPayload); err == nil {
			greedy = append(greedy, id)
		} else {
			pt.Violations = append(pt.Violations, fmt.Sprintf("greedy submit: %v", err))
		}
		if i%20 == 0 { // each polite client ~1/60th of the greedy rate
			for k := 1; k <= 3; k++ {
				if id, err := c.Submit(k, politePayload); err == nil {
					polite = append(polite, id)
				} else {
					pt.Violations = append(pt.Violations, fmt.Sprintf("polite submit: %v", err))
				}
			}
		}
		if !pt.BrownoutSeen && i%10 == 0 {
			pt.BrownoutSeen = brownoutSeen()
		}
		time.Sleep(time.Millisecond)
	}
	if !pt.BrownoutSeen {
		pt.BrownoutSeen = brownoutSeen()
	}

	// Liveness and safety over the polite clients: all of their traffic
	// must commit despite the flood. The greedy client's commits are
	// bounded by its quota, not asserted request-by-request.
	finishScenario(c, &pt, polite, dur, 15*time.Second, nil, false)
	for _, id := range greedy {
		if c.Events.Committed(id) {
			pt.GreedyCommitted++
		}
	}
	for _, id := range procs {
		pt.IngressShed += uint64(c.Metric(id, 0, "sof_ingress_shed_total"))
		pt.IngressAdmitted += uint64(c.Metric(id, 0, "sof_ingress_admitted_total"))
	}
	pt.RejectedReplies = c.RejectedCount(0)

	if !pt.BrownoutSeen {
		pt.Violations = append(pt.Violations, "brownout gauge never rose under the flood")
	}
	if pt.IngressShed == 0 {
		pt.Violations = append(pt.Violations, "nothing shed at admission under a 6x overload")
	}
	if pt.RejectedReplies == 0 {
		pt.Violations = append(pt.Violations, "greedy client never received a Rejected reply")
	}
	if pt.GreedyCommitted == 0 {
		pt.Violations = append(pt.Violations, "greedy client starved outright (quota share should still commit)")
	}
	// finishScenario returns once the tracked polite requests commit; the
	// greedy backlog is still draining then. Give the cluster one more
	// window — the proposer orders its remaining admitted backlog, the
	// other nodes drop shed copies via parity notes and TTL eviction —
	// and require every node to leave brownout.
	for deadline := time.Now().Add(20 * time.Second); brownoutSeen() && time.Now().Before(deadline); {
		time.Sleep(200 * time.Millisecond)
	}
	for _, id := range procs {
		if c.Metric(id, 0, "sof_ingress_brownout") != 0 {
			pt.Violations = append(pt.Violations, fmt.Sprintf("%v still in brownout after the backlog drained", id))
		}
	}
	return g.report(pt)
}
