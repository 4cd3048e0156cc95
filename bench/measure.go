package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/harness"
	"github.com/sof-repro/sof/internal/ingress"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/obs"
	"github.com/sof-repro/sof/internal/types"
)

const (
	batchInterval = 10 * time.Millisecond
	pollEvery     = 200 * time.Microsecond
	bootTimeout   = 10 * time.Second
)

// clusterOptions is the ROADMAP's production preset on the live TCP
// transport. Brownout is off: at its default threshold one 30 ms
// scheduler stall trips it, and the harness client never retries a shed
// request, so fault-free runs would lose a random handful of requests.
// Limiter lookup, per-client accounting and DRR dequeue stay on the path.
func clusterOptions(w workload, seed int64, dataDir string) harness.Options {
	return harness.Options{
		Protocol:           types.SC,
		F:                  faults,
		Suite:              crypto.HMACSHA256,
		BatchInterval:      batchInterval,
		MaxBatchBytes:      w.BatchBytes,
		Delta:              w.Delta,
		MaxInflightBatches: 8,
		DigestOnlyAcks:     true,
		AuthFrames:         true,
		SessionResume:      true,
		Ingress:            ingress.Config{Enabled: true, Rate: -1, BrownoutHigh: -1},
		Seed:               seed,
		Live:               true,
		Transport:          types.TransportTCP,
		Durable:            w.Durable,
		DataDir:            dataDir,
		NumClients:         clients,
		KeepCommits:        true,
		CommitRetention:    1 << 16,
	}
}

// boot builds and starts a cluster and returns once a probe request has
// committed at f+1 processes; the elapsed time is one setup_s sample. It
// also returns the probe's ID, which the output check must expect.
func boot(w workload, seed int64, dataDir string) (*harness.Cluster, message.ReqID, time.Duration, error) {
	t0 := time.Now()
	c, err := harness.New(clusterOptions(w, seed, dataDir))
	if err != nil {
		return nil, message.ReqID{}, 0, fmt.Errorf("building cluster: %w", err)
	}
	c.Start()
	id, err := c.Submit(0, make([]byte, w.ReqBytes))
	if err != nil {
		c.Stop()
		return nil, message.ReqID{}, 0, fmt.Errorf("submitting probe: %w", err)
	}
	var cursor uint64
	seen := 0
	for deadline := t0.Add(bootTimeout); time.Now().Before(deadline); time.Sleep(pollEvery) {
		events, next, _ := c.Events.CommitsSince(cursor)
		cursor = next
		for _, ev := range events {
			for _, e := range ev.Entries {
				if e.Req == id {
					seen++
				}
			}
		}
		if seen >= quorum {
			return c, id, time.Since(t0), nil
		}
	}
	c.Stop()
	return nil, message.ReqID{}, 0, fmt.Errorf("probe request not committed at %d processes within %v", quorum, bootTimeout)
}

// counters is everything read at a window boundary, from outside the
// program: process accounting, the Go runtime, each node's registry and
// the Recorder.
type counters struct {
	at         time.Time
	cpu        time.Duration // user + system
	cpuSys     time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
	reg        map[string]float64 // registry families summed over nodes and labels
	fsync      []obs.Bucket       // sof_wal_fsync_seconds, merged over nodes
	batches    int
	sizeClosed int
}

// processCPU returns the process's CPU time so far, user plus system, and
// the system part alone.
func processCPU() (total, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), time.Duration(ru.Stime.Nano())
}

// hostCPU returns, in clock ticks since boot and over all processors, the
// time the hypervisor ran something else while this machine wanted to run
// (steal) and all time accounted. Both are 0 where /proc/stat is missing.
// A shared host's busy spells slow every workload by a fifth and more,
// and this is the only trace they leave in a result.
func hostCPU() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func readCounters(c *harness.Cluster) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, cpuSys := processCPU()
	k := counters{
		at:         time.Now(),
		cpu:        cpu,
		cpuSys:     cpuSys,
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPauseNs:  ms.PauseTotalNs,
		reg:        make(map[string]float64),
		batches:    c.Events.BatchCount(),
		sizeClosed: c.Events.SizeTriggeredBatches(),
	}
	ids := c.Topo.AllProcesses()
	for i := 0; i < clients; i++ {
		ids = append(ids, types.ClientID(i))
	}
	for _, id := range ids {
		for _, fam := range c.RegistryOf(id).Collect() {
			for _, s := range fam.Samples {
				if s.Histogram == nil {
					k.reg[fam.Name] += s.Value
					continue
				}
				if fam.Name != "sof_wal_fsync_seconds" {
					continue
				}
				if k.fsync == nil {
					k.fsync = make([]obs.Bucket, len(s.Histogram.Buckets))
				}
				for i, b := range s.Histogram.Buckets {
					k.fsync[i].UpperBound = b.UpperBound
					k.fsync[i].Count += b.Count
				}
			}
		}
	}
	return k
}

// trialSpec is what a pass hands the child process that runs one trial.
type trialSpec struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Length   time.Duration `json:"length_ns"`
	Trace    bool          `json:"trace"`
	EpochNs  int64         `json:"epoch_ns"` // the pass's time origin, Unix nanoseconds
}

// trialReport is what the child hands back.
type trialReport struct {
	Setups     []float64          `json:"setups_s"`
	Metrics    map[string]float64 `json:"metrics"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Sends      int                `json:"sends"`    // measured sends
	TooLate    int                `json:"too_late"` // those started over lateLimit late
	Violations []string           `json:"violations,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
	Boundaries []boundary         `json:"boundaries"`
}

// trialEnv carries a trialSpec to a child process; see runPass.
const trialEnv = "SOF_BENCH_TRIAL"

// trial is one measured stretch on a fresh cluster in a fresh process. A
// pass is a series of trials because the order processes keep every
// request they have seen: the live heap of a long-lived cluster grows
// without bound, and where a few long garbage collections fall decides
// what a long window measures. Short trials see the same heap, and so the
// same collector, every time. Each has its own process because a stopped
// cluster stays reachable from its pending timers for up to 30 s.
type trial struct {
	setups        []float64 // seconds per boot
	t             *tracker
	start, end    int64 // measured window, ns since the pass epoch
	drained       int64 // instant the drain ended
	before, after counters
	final         counters // after the drain: totals for the output check
	retained      float64  // live heap growth from first send to end of drain, bytes
	orderP50      time.Duration
	maxInflight   int
	failSignals   int
	installs      int
	fillRatio     float64
	goroutines    int
}

func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// runTrial boots a cluster (setupRounds times, keeping the last), drives
// the workload through its warm-up and a measured window of the given
// length, drains it and measures what happened.
func runTrial(w workload, seed int64, epoch time.Time, length time.Duration, trace bool) (*trialReport, error) {
	tr := &trial{}
	var c *harness.Cluster
	var probe message.ReqID
	dir := "" // the durable cluster's data directory
	defer func() { os.RemoveAll(dir) }()
	for i := 0; i < setupRounds; i++ {
		if c != nil {
			c.Stop()
			os.RemoveAll(dir)
		}
		var took time.Duration
		var err error
		if w.Durable {
			if dir, err = os.MkdirTemp(scratchDir, "data-"); err != nil {
				return nil, err
			}
		}
		if c, probe, took, err = boot(w, seed, dir); err != nil {
			return nil, err
		}
		tr.setups = append(tr.setups, took.Seconds())
	}
	defer c.Stop()
	primary, _, _, err := c.Topo.Candidate(1)
	if err != nil {
		return nil, err
	}

	heap0 := liveHeap()
	start := time.Now().Add(20 * time.Millisecond)
	wStart := start.Add(w.WarmUp)
	wEnd := wStart.Add(length)
	t := newTracker(c, epoch, probe, w.Outstanding)
	tr.t, tr.start, tr.end = t, t.since(wStart), t.since(wEnd)

	rng := rand.New(rand.NewSource(seed))
	gens := make([]*generator, 2*clients) // one per client, then one per client for retries
	for i := range gens {
		gens[i] = &generator{t: t, w: w, client: i % clients, trace: trace, wStart: wStart, wEnd: wEnd,
			rng: rand.New(rand.NewSource(rng.Int63()))}
	}
	firstSlot := rng.Intn(clients) // which client owns the even slots

	stopPoll := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			t.poll()
			if w.RetryAfter > 0 {
				now := time.Now()
				for _, op := range t.overdue(t.since(now), w.RetryAfter) {
					gens[clients+op.client].submit(now, op)
				}
			}
			select {
			case <-stopPoll:
				t.poll()
				return
			default:
				time.Sleep(pollEvery)
			}
		}
	}()

	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(g *generator) {
			defer wg.Done()
			if w.Rate > 0 {
				g.open(start, (g.client+firstSlot)%clients)
			} else {
				time.Sleep(time.Until(start))
				g.closed()
			}
		}(gens[k])
	}
	var killErr error
	if w.Kill {
		jitter := time.Duration(rng.Int63n(int64(2*killJitter))) - killJitter
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(killAt + jitter)))
			killErr = c.KillNode(primary)
		}()
	}

	time.Sleep(time.Until(wStart))
	tr.before = readCounters(c)
	c.Events.StartWindow(wStart)
	time.Sleep(time.Until(wEnd))
	tr.after = readCounters(c)
	tr.goroutines = runtime.NumGoroutine()
	wg.Wait()
	for deadline := wEnd.Add(maxDrain); t.pending() > 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	close(stopPoll)
	<-pollDone
	tr.drained = t.since(time.Now())
	if killErr != nil {
		return nil, fmt.Errorf("killing the primary: %w", killErr)
	}

	tr.final = readCounters(c)
	tr.retained = liveHeap() - heap0
	tr.orderP50 = c.Events.LatencySummary().P50
	tr.maxInflight = c.Events.MaxInflight()
	for _, ev := range c.Events.FailSignals() {
		if ev.Emitter {
			tr.failSignals++
		}
	}
	tr.installs = len(c.Events.Installs())
	var closes, fill float64
	for _, id := range c.Topo.AllProcesses() {
		if w.Kill && id == primary {
			continue // dead: its event loop would never answer
		}
		if st, ok := c.OrderStateOf(id); ok {
			n := float64(st.SizeTriggeredCloses + st.TimerTriggeredCloses)
			closes += n
			fill += n * st.MeanFillRatio
		}
	}
	if closes > 0 {
		tr.fillRatio = fill / closes
	}
	return tr.measure(w, trace), nil
}

// runChild is the child process's whole life: run the trial the
// environment describes and print its report.
func runChild(encoded string) error {
	var spec trialSpec
	if err := json.Unmarshal([]byte(encoded), &spec); err != nil {
		return fmt.Errorf("%s: %w", trialEnv, err)
	}
	w, ok := workloadByName(spec.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", spec.Workload)
	}
	rep, err := runTrial(w, spec.Seed, time.Unix(0, spec.EpochNs), spec.Length, spec.Trace)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// spawnTrial runs one trial in a child process — this same executable
// with trialEnv set — and waits for it.
func spawnTrial(spec trialSpec) (*trialReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	encoded, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), trialEnv+"="+string(encoded))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	rep := new(trialReport)
	if err := json.Unmarshal(out, rep); err != nil {
		return nil, fmt.Errorf("reading the trial's report: %w", err)
	}
	return rep, nil
}

// pending counts operations that have not reached f+1 commits.
func (t *tracker) pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, r := range t.sent {
		if r.op == r && r.done == 0 {
			n++
		}
	}
	return n
}

// result is one pass of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trials    int                `json:"trials"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
	// Violations are output-check failures and always make the command
	// exit non-zero; Invalid are hygiene failures (late generator,
	// backlog), which fail a full run and are a warning with --workload.
	Violations []string `json:"violations,omitempty"`
	Invalid    []string `json:"invalid,omitempty"`
}

// runPass runs one workload once: as many whole trials as fit the window,
// at least one. The traced pass adds spans and the layer drive.
func runPass(w workload, seed int64, window time.Duration, trace bool) (*result, *traceLog, error) {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, nil, err
	}
	n, length := int(window/w.Trial), w.Trial
	if n < 1 {
		n, length = 1, window
	}
	epoch := time.Now()
	steal0, ticks0 := hostCPU()
	trials := make([]*trialReport, n)
	for i := range trials {
		var err error
		spec := trialSpec{Workload: w.Name, Seed: seed + int64(i)*7919, Length: length, Trace: trace, EpochNs: epoch.UnixNano()}
		if trials[i], err = spawnTrial(spec); err != nil {
			return nil, nil, fmt.Errorf("trial %d: %w", i, err)
		}
	}
	res := &result{Workload: w.Name, Seed: seed, Seconds: int(window / time.Second), Trials: n, Trace: trace}
	summarize(w, trials, res)
	res.Metrics["host.cpu_steal_pct"] = 0
	if steal, ticks := hostCPU(); ticks > ticks0 {
		pct := 100 * float64(steal-steal0) / float64(ticks-ticks0)
		res.Metrics["host.cpu_steal_pct"] = pct
		res.Notes = append(res.Notes, fmt.Sprintf("the host kept %.1f%% of this machine's CPU time from it during the pass", pct))
	}
	var tl *traceLog
	if trace {
		tl = newTraceLog(epoch, w, seed, trials)
		if errs := driveLayers(w, tl, res.Metrics); len(errs) > 0 {
			return nil, nil, fmt.Errorf("layer drive: %s", strings.Join(errs, "; "))
		}
	}
	res.Correct = len(res.Violations) == 0
	return res, tl, nil
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(0, int(math.Ceil(q*float64(len(sorted))))-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func ms(ns float64) float64 { return ns / 1e6 }

// Across trials a metric is the median of the per-trial values, except
// the event counts, which add up, and the peaks, which keep the largest.
var (
	summed = map[string]bool{
		"loadgen.retried": true, "core.fail_signals": true, "core.installs": true, "ingress.shed_total": true,
		"session.retransmitted_total": true, "session.duplicates_total": true,
		"tcpnet.dropped_total": true, "tcpnet.reconnects_total": true,
	}
	peaks = map[string]bool{
		"loadgen.commit_max_ms": true, "loadgen.late_max_ms": true, "core.max_inflight": true, "process.goroutines": true,
	}
)

// summarize combines the trials into the pass's metrics and runs the
// hygiene checks and the output checks that span trials.
func summarize(w workload, trials []*trialReport, res *result) {
	perTrial := make(map[string][]float64)
	var setups []float64
	sends, tooLate := 0, 0
	for _, tr := range trials {
		setups = append(setups, tr.Setups...)
		for name, v := range tr.Metrics {
			perTrial[name] = append(perTrial[name], v)
		}
		res.Attempted += tr.Attempted
		res.Failed += tr.Failed
		res.Violations = append(res.Violations, tr.Violations...)
		sends += tr.Sends
		tooLate += tr.TooLate
	}
	res.Metrics = map[string]float64{"setup_s": median(setups)}
	for name, vals := range perTrial {
		switch {
		case summed[name]:
			for _, v := range vals {
				res.Metrics[name] += v
			}
		case peaks[name]:
			res.Metrics[name] = slices.Max(vals)
		default:
			res.Metrics[name] = median(vals)
		}
	}
	rates := perTrial["committed_per_s"]
	res.Notes = append(res.Notes, fmt.Sprintf("%d trial(s); committed_per_s per trial: min %.1f max %.1f",
		len(trials), slices.Min(rates), slices.Max(rates)))

	// Hygiene: the numbers mean what they say only if the generator kept
	// its schedule and the cluster kept up.
	if w.Rate > 0 && float64(tooLate) > lateShare*float64(sends) {
		res.Invalid = append(res.Invalid, fmt.Sprintf("%d of %d sends started more than %v late", tooLate, sends, lateLimit))
	}
	if w.Rate > 0 && float64(res.Attempted-res.Failed) < minCommitted*float64(res.Attempted) {
		res.Invalid = append(res.Invalid, fmt.Sprintf("only %d of %d offered requests committed", res.Attempted-res.Failed, res.Attempted))
	}
	if res.Attempted == 0 {
		res.Invalid = append(res.Invalid, "no request was due inside the window")
	}
	if !w.Kill {
		if v := res.Metrics["ingress.shed_total"]; v != 0 {
			res.Violations = append(res.Violations, fmt.Sprintf("ingress shed %.0f requests on a fault-free workload", v))
		}
		if v := res.Metrics["tcpnet.dropped_total"]; v != 0 {
			res.Violations = append(res.Violations, fmt.Sprintf("transport dropped %.0f frames on a fault-free workload", v))
		}
		if res.Failed != 0 {
			res.Violations = append(res.Violations, fmt.Sprintf("%d requests not committed at %d processes by end of drain", res.Failed, quorum))
		}
	}
}

// measure computes the trial's metrics and counts and runs the output
// check on its commit streams.
func (tr *trial) measure(w workload, trace bool) *trialReport {
	t := tr.t
	rep := &trialReport{Setups: tr.setups, Violations: t.violations, Spans: t.closeSpans(tr.drained)}
	for _, k := range []counters{tr.before, tr.after, tr.final} {
		rep.Boundaries = append(rep.Boundaries, boundary{At: t.since(k.at), CPUNs: int64(k.cpu), Mallocs: k.mallocs, Registry: k.reg})
	}
	var (
		lat, latOn, latOff, late, submit, spread []float64
		done                                     []int64 // completion instants, warm-up and drain included
		committed, retried                       int
	)
	for _, r := range t.sent {
		if r.op != r {
			continue
		}
		if r.done != 0 {
			done = append(done, r.done)
			if r.done >= tr.start && r.done < tr.end {
				committed++
			}
		}
		if !r.measured {
			continue
		}
		rep.Attempted++
		late = append(late, float64(r.sent-r.due))
		submit = append(submit, float64(r.submit))
		if r.retried {
			retried++
		}
		l := float64(tr.drained - r.due) // never committed: misses every percentile
		if r.done == 0 {
			rep.Failed++
		} else {
			l = float64(r.done - r.due)
		}
		if r.quorum != 0 {
			first := r.quorum
			for _, at := range r.at {
				if at != 0 && at < first {
					first = at
				}
			}
			spread = append(spread, float64(r.quorum-first))
		}
		lat = append(lat, l)
		if sliceOf(time.Duration(r.due-tr.start))%2 == 0 {
			latOn = append(latOn, l)
		} else {
			latOff = append(latOff, l)
		}
	}
	// A request committed somewhere must be committed at f+1 by the end of
	// the drain. Under the injected crash that shows in `failed` and
	// `loadgen.retried`, as measured; it is not asserted.
	for _, r := range t.reqs {
		if r.op == nil && r.id != t.probe {
			rep.Violations = append(rep.Violations, fmt.Sprintf("request %v committed but was never submitted", r.id))
		}
		if !w.Kill && r.op != nil && r.n > 0 && r.n < quorum {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("request %v committed at %d process(es) but not at %d by end of drain", r.id, r.n, quorum))
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	sort.Float64s(lat)
	sort.Float64s(late)
	sort.Float64s(submit)
	rep.Sends = len(late)
	rep.TooLate = len(late) - sort.SearchFloat64s(late, float64(lateLimit)+1)

	cpu := tr.after.cpu - tr.before.cpu
	wall := tr.after.at.Sub(tr.before.at).Seconds()
	per := func(x float64) float64 { return x / math.Max(1, float64(committed)) }
	reg := func(name string) float64 { return tr.after.reg[name] - tr.before.reg[name] }
	batches := math.Max(1, float64(tr.after.batches-tr.before.batches))
	fsync := make([]obs.Bucket, len(tr.after.fsync))
	for i, b := range tr.after.fsync {
		fsync[i] = b
		if tr.before.fsync != nil {
			fsync[i].Count -= tr.before.fsync[i].Count
		}
	}

	m := map[string]float64{
		"commit_p50_ms":     ms(quantile(lat, 0.50)),
		"commit_p95_ms":     ms(quantile(lat, 0.95)),
		"committed_per_s":   windowRate(done, tr.start, tr.end),
		"allocs_per_commit": per(float64(tr.after.mallocs - tr.before.mallocs)),

		"loadgen.commit_p99_ms":      ms(quantile(lat, 0.99)),
		"loadgen.commit_max_ms":      ms(quantile(lat, 1)),
		"loadgen.service_gap_ms":     ms(longestGap(done, tr.start, tr.end)),
		"loadgen.late_p99_ms":        ms(quantile(late, 0.99)),
		"loadgen.late_max_ms":        ms(quantile(late, 1)),
		"loadgen.submit_p50_us":      quantile(submit, 0.5) / 1e3,
		"loadgen.retried":            float64(retried),
		"loadgen.trace_overhead_pct": 0,

		"process.cpu_cores_busy":         cpu.Seconds() / wall,
		"process.cpu_us_per_commit":      per(float64(cpu) / 1e3),
		"process.cpu_sys_us_per_commit":  per(float64(tr.after.cpuSys-tr.before.cpuSys) / 1e3),
		"process.alloc_kb_per_commit":    per(float64(tr.after.allocBytes-tr.before.allocBytes) / 1024),
		"process.retained_kb_per_commit": tr.retained / 1024 / math.Max(1, float64(len(done))),
		"process.gc_pause_ms_per_s":      float64(tr.after.gcPauseNs-tr.before.gcPauseNs) / 1e6 / wall,
		"process.goroutines":             float64(tr.goroutines),

		"core.entries_per_batch":    float64(committed) / batches,
		"core.batch_fill_ratio":     tr.fillRatio,
		"core.size_triggered_share": float64(tr.after.sizeClosed-tr.before.sizeClosed) / batches,
		"core.max_inflight":         float64(tr.maxInflight),
		"core.order_p50_ms":         ms(float64(tr.orderP50)),
		"core.commit_spread_ms":     ms(median(spread)),
		"core.fail_signals":         float64(tr.failSignals),
		"core.installs":             float64(tr.installs),

		"ingress.admitted_per_commit": per(reg("sof_ingress_admitted_total")),
		"ingress.shed_total":          tr.final.reg["sof_ingress_shed_total"],
		"session.retransmitted_total": tr.final.reg["sof_peer_retransmitted_total"],
		"session.duplicates_total":    tr.final.reg["sof_session_duplicates_total"],
		"tcpnet.frames_per_commit":    per(reg("sof_peer_queued_total")),
		"tcpnet.dropped_total":        tr.final.reg["sof_peer_dropped_total"],
		"tcpnet.reconnects_total":     tr.final.reg["sof_peer_reconnects_total"],
		"wal.appends_per_commit":      per(reg("sof_wal_appends_total")),
		"wal.syncs_per_s":             reg("sof_wal_syncs_total") / wall,
		"wal.fsync_p50_ms":            1e3 * bucketQuantile(fsync, 0.50),
		"wal.fsync_p99_ms":            1e3 * bucketQuantile(fsync, 0.99),
	}
	m["core.queue_wait_p50_ms"] = m["commit_p50_ms"] - m["core.order_p50_ms"]
	if on, off := median(latOn), median(latOff); trace && off > 0 {
		m["loadgen.trace_overhead_pct"] = 100 * (on - off) / off
	}
	rep.Metrics = m
	return rep
}

// windowRate is the completion rate per second over [start, end): the
// completions from the first one inside the window up to the first one
// after it, over the time between those two, so that the rate is a
// measured interval and not a count over a nominal one.
func windowRate(done []int64, start, end int64) float64 {
	a := sort.Search(len(done), func(i int) bool { return done[i] >= start })
	b := sort.Search(len(done), func(i int) bool { return done[i] >= end })
	if b == len(done) {
		b-- // nothing completed after the window: close it at the last completion
	}
	if b <= a {
		return 0
	}
	return float64(b-a) / (float64(done[b]-done[a]) / 1e9)
}

// longestGap is the longest time without a completion inside [start,
// end), the window's edges counting as completions.
func longestGap(done []int64, start, end int64) float64 {
	prev, longest := start, int64(0)
	for _, d := range done {
		if d < start {
			continue
		}
		if d >= end {
			break
		}
		longest = max(longest, d-prev)
		prev = d
	}
	return float64(max(longest, end-prev))
}

// bucketQuantile estimates a quantile from cumulative histogram buckets
// (seconds), interpolating inside the bucket that holds it.
func bucketQuantile(b []obs.Bucket, q float64) float64 {
	if len(b) == 0 || b[len(b)-1].Count == 0 {
		return 0
	}
	rank := q * float64(b[len(b)-1].Count)
	var prevCount uint64
	prevBound := 0.0
	for _, bk := range b {
		if float64(bk.Count) >= rank {
			if math.IsInf(bk.UpperBound, 1) || bk.Count == prevCount {
				return prevBound
			}
			return prevBound + (rank-float64(prevCount))/float64(bk.Count-prevCount)*(bk.UpperBound-prevBound)
		}
		prevCount, prevBound = bk.Count, bk.UpperBound
	}
	return prevBound
}
