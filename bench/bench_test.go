package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/obs"
)

// TestMain lets the test binary stand in for the benchmark executable:
// runPass re-executes os.Executable() for every trial.
func TestMain(m *testing.M) {
	if spec := os.Getenv(trialEnv); spec != "" {
		if err := runChild(spec); err != nil {
			fmt.Fprintln(os.Stderr, "bench trial:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json and the tables in spec.go in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, want %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d = %+v, want name %q why %q", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n spec %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n spec %+v", file.PerLayer, perLayer)
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("malformed metric %+v", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if endToEnd[0] != (metricDef{"setup_s", "s", lower, 0.25}) {
		t.Errorf("first end-to-end metric = %+v, want setup_s with the largest bound", endToEnd[0])
	}
}

// TestMiniature runs every workload for two seconds, traced, with the
// layer drive, and checks that each metric BENCHMARK.json names comes out
// once, finite, and that the output check passes.
func TestMiniature(t *testing.T) {
	if testing.Short() {
		t.Skip("boots live TCP clusters")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, tl, err := runPass(w, 1, 2*time.Second, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Attempted == 0 || !res.Correct {
				t.Errorf("attempted %d, violations %v", res.Attempted, res.Violations)
			}
			want := len(endToEnd) + len(perLayer)
			if len(res.Metrics) != want {
				t.Errorf("%d metrics emitted, %d defined", len(res.Metrics), want)
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (emitted: %v)", d.Name, v, ok)
				}
			}
			for _, d := range endToEnd {
				if res.Metrics[d.Name] <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", d.Name, res.Metrics[d.Name])
				}
			}
			if appends := res.Metrics["wal.appends_per_commit"]; (appends > 0) != w.Durable {
				t.Errorf("wal.appends_per_commit = %v with Durable = %v", appends, w.Durable)
			}
			if w.Kill && res.Metrics["core.installs"] == 0 {
				t.Error("the primary was killed but no coordinator was installed")
			}
			tl.totals()
			if tl.Totals["request"].Count == 0 || tl.Totals["layer.crypto.sign_ns"].Count != 1 {
				t.Errorf("span totals = %v", tl.Totals)
			}
		})
	}
}

func TestWindowRateAndGap(t *testing.T) {
	const s = int64(time.Second)
	// One completion every 100 ms from 0.05 s on; window [1 s, 2 s).
	var done []int64
	for at := s / 20; at < 3*s; at += s / 10 {
		done = append(done, at)
	}
	if got := windowRate(done, s, 2*s); math.Abs(got-10) > 1e-9 {
		t.Errorf("windowRate = %v, want 10", got)
	}
	if got := windowRate(done[:15], s, 2*s); got <= 0 {
		t.Errorf("windowRate with nothing after the window = %v, want > 0", got)
	}
	if got := windowRate(nil, s, 2*s); got != 0 {
		t.Errorf("windowRate of nothing = %v", got)
	}
	if got := longestGap(done, s, 2*s); got != float64(s/10) {
		t.Errorf("longestGap = %v, want %v", got, s/10)
	}
	outage := append(append([]int64(nil), done[:12]...), done[16:]...) // nothing in [1.15 s, 1.65 s)
	if got := longestGap(outage, s, 2*s); got != float64(s/2) {
		t.Errorf("longestGap over an outage = %v, want %v", got, s/2)
	}
	if got := longestGap(nil, s, 2*s); got != float64(s) {
		t.Errorf("longestGap of nothing = %v, want the whole window", got)
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0: 1, 0.5: 5, 0.95: 10, 1: 10} {
		if got := quantile(v, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	buckets := []obs.Bucket{{UpperBound: 0.001, Count: 50}, {UpperBound: 0.002, Count: 100}, {UpperBound: math.Inf(1), Count: 100}}
	if got := bucketQuantile(buckets, 0.75); math.Abs(got-0.0015) > 1e-12 {
		t.Errorf("bucketQuantile = %v, want 0.0015", got)
	}
	if got := bucketQuantile(nil, 0.5); got != 0 {
		t.Errorf("bucketQuantile of nothing = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	tl := &traceLog{Spans: []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "loadgen.submit", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "commit.p1", Start: 10, End: 60},
		{ID: 4, Parent: 1, Name: "commit.p2", Start: 10, End: 80}, // overlaps commit.p1
	}}
	tl.totals()
	if got := tl.Totals["request"]; got != (spanTotals{Count: 1, TotalNs: 100, SelfNs: 20}) {
		t.Errorf("request totals = %+v, want self 20 of 100", got)
	}
}
