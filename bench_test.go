package sof_test

// Benchmark harness regenerating every figure of the paper's evaluation
// (Section 5). Each benchmark drives the virtual-time simulator with the
// calibrated 2006-era cost models and reports the same quantity the paper
// plots via b.ReportMetric; `go test -bench=.` therefore prints the full
// series. cmd/sofbench renders the same data as tables with the complete
// parameter sweeps.

import (
	cryptorand "crypto/rand"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"

	"github.com/sof-repro/sof/internal/core"
	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/harness"
	"github.com/sof-repro/sof/internal/message"
	"github.com/sof-repro/sof/internal/netsim"
	"github.com/sof-repro/sof/internal/types"
)

// benchIntervals is a compact subset of the paper's 40-500 ms sweep so the
// default bench run stays quick; cmd/sofbench runs all of PaperIntervals.
var benchIntervals = []time.Duration{40 * time.Millisecond, 100 * time.Millisecond, 500 * time.Millisecond}

const benchWindow = 8 * time.Second // virtual measurement window per point

// TestBenchModuleVets type-checks bench/ against this tree. bench/ is the
// repository's benchmark and its own module, so `go build ./...` and
// `go test ./...` here never compile it; without this test a change to a
// name it imports (ARCHITECTURE "What bench/ holds still") would surface
// only as a failed benchmark run.
func TestBenchModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=-mod=mod", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}

// BenchmarkLatencySummaryPolling proves the recorder's summary memoization:
// polling LatencySummary between commits is O(1) and allocation-free
// instead of re-sorting the full latency sample on every call.
func BenchmarkLatencySummaryPolling(b *testing.B) {
	r := harness.NewRecorder(false, 0)
	t0 := time.Unix(0, 0)
	for i := 0; i < 100_000; i++ {
		at := t0.Add(time.Duration(i) * time.Millisecond)
		r.OnBatched(core.BatchEvent{View: 1, FirstSeq: types.Seq(i), At: at})
		r.OnCommit(core.CommitEvent{Node: 0, View: 1, Kind: message.SubjectBatch,
			FirstSeq: types.Seq(i), LastSeq: types.Seq(i), At: at.Add(30 * time.Millisecond)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := r.LatencySummary(); s.Count == 0 {
			b.Fatal("no samples")
		}
	}
}

// BenchmarkFigure4 reports order latency (ms) vs batching interval for CT,
// SC and BFT under each of the paper's three cryptographic configurations
// (Figure 4a-c), at f = 2.
func BenchmarkFigure4(b *testing.B) {
	for _, suite := range crypto.StudySuites() {
		for _, proto := range []types.Protocol{types.CT, types.SC, types.BFT} {
			for _, interval := range benchIntervals {
				name := fmt.Sprintf("%s/%s/interval=%s", suite, proto, interval)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						pt, err := harness.RunLatencyThroughputPoint(proto, suite, 2, interval, benchWindow, int64(i+1))
						if err != nil {
							b.Fatal(err)
						}
						b.ReportMetric(float64(pt.Latency.Mean.Microseconds())/1000, "latency-ms")
						b.ReportMetric(float64(pt.Latency.P90.Microseconds())/1000, "p90-ms")
					}
				})
			}
		}
	}
}

// BenchmarkFigure5 reports throughput (requests committed per second at an
// order process) vs batching interval (Figure 5a-c), at f = 2.
func BenchmarkFigure5(b *testing.B) {
	for _, suite := range crypto.StudySuites() {
		for _, proto := range []types.Protocol{types.CT, types.SC, types.BFT} {
			for _, interval := range benchIntervals {
				name := fmt.Sprintf("%s/%s/interval=%s", suite, proto, interval)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						pt, err := harness.RunLatencyThroughputPoint(proto, suite, 2, interval, benchWindow, int64(i+1))
						if err != nil {
							b.Fatal(err)
						}
						b.ReportMetric(pt.Throughput, "committed/s")
					}
				})
			}
		}
	}
}

// BenchmarkFigure6 reports fail-over latency (ms) vs BackLog size for SC
// and SCR under each cryptographic configuration (Figure 6), at f = 2,
// with a single injected value-domain fault.
func BenchmarkFigure6(b *testing.B) {
	for _, suite := range crypto.StudySuites() {
		for _, proto := range []types.Protocol{types.SC, types.SCR} {
			for _, kb := range harness.PaperBacklogKBs {
				name := fmt.Sprintf("%s/%s/backlog=%dKB", suite, proto, kb)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						pt, err := harness.RunFailOverPoint(proto, suite, 2, kb, int64(i+1))
						if err != nil {
							b.Fatal(err)
						}
						b.ReportMetric(float64(pt.Latency.Microseconds())/1000, "failover-ms")
					}
				})
			}
		}
	}
}

// BenchmarkF3Sweep reproduces the paper's f = 3 remark: same trends, with
// saturation at larger batching intervals and higher steady-state latency.
func BenchmarkF3Sweep(b *testing.B) {
	for _, proto := range []types.Protocol{types.SC, types.BFT} {
		for _, f := range []int{2, 3} {
			name := fmt.Sprintf("%s/f=%d", proto, f)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pt, err := harness.RunLatencyThroughputPoint(proto, crypto.MD5RSA1024, f,
						200*time.Millisecond, benchWindow, int64(i+1))
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(pt.Latency.Mean.Microseconds())/1000, "latency-ms")
				}
			})
		}
	}
}

// BenchmarkMessageComplexity measures the Figure 3 phase structure: wire
// messages per committed batch (SC: 1->1, 2->n, n->n vs BFT: 1->n, n->n,
// n->n vs CT: 1->n, n->n).
func BenchmarkMessageComplexity(b *testing.B) {
	for _, proto := range []types.Protocol{types.CT, types.SC, types.BFT} {
		b.Run(proto.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := harness.Options{
					Protocol:      proto,
					F:             2,
					BatchInterval: 10 * time.Millisecond,
					Net:           netsim.LANDefaults(),
					Seed:          int64(i + 1),
					Mirror:        false, // order-protocol traffic only
				}
				c, err := harness.New(opts)
				if err != nil {
					b.Fatal(err)
				}
				c.Start()
				c.RunFor(50 * time.Millisecond)
				c.Fabric.ResetCounters()
				if _, err := c.Submit(0, make([]byte, 100)); err != nil {
					b.Fatal(err)
				}
				c.RunFor(300 * time.Millisecond)
				b.ReportMetric(float64(c.Fabric.Totals().Messages), "msgs/batch")
				b.ReportMetric(float64(c.Fabric.Totals().Bytes), "bytes/batch")
			}
		})
	}
}

// BenchmarkAblationMirroring quantifies the cost of the pair-link
// mirroring (Section 3.1 collaboration (i)) on SC's order latency.
func BenchmarkAblationMirroring(b *testing.B) {
	for _, mirror := range []bool{true, false} {
		b.Run(fmt.Sprintf("mirror=%v", mirror), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := harness.Options{
					Protocol:      types.SC,
					F:             2,
					Suite:         crypto.ModelPrefix + crypto.MD5RSA1024,
					BatchInterval: 100 * time.Millisecond,
					Mirror:        mirror,
					Net:           netsim.LANDefaults(),
					Seed:          int64(i + 1),
					Load:          harness.LoadFor(100*time.Millisecond, 1024),
				}
				c, err := harness.New(opts)
				if err != nil {
					b.Fatal(err)
				}
				c.Start()
				c.RunFor(time.Second)
				c.Events.StartWindow(c.Now())
				c.RunFor(benchWindow)
				b.ReportMetric(float64(c.Events.LatencySummary().Mean.Microseconds())/1000, "latency-ms")
			}
		})
	}
}

// BenchmarkAblationVerifyCost sweeps the signature-verification cost to
// expose the mechanism behind the paper's RSA-vs-DSA observation: the
// SC-BFT gap grows with verification cost because "in a typical n to n
// message exchange, each process signs one message while it needs to
// verify at least (n-f) messages", and BFT has one more n-to-n phase.
func BenchmarkAblationVerifyCost(b *testing.B) {
	for _, verify := range []time.Duration{time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond} {
		b.Run(fmt.Sprintf("verify=%s", verify), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gap, err := scBFTGapWithVerify(verify, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(gap.Microseconds())/1000, "gap-ms")
			}
		})
	}
}

func scBFTGapWithVerify(verify time.Duration, seed int64) (time.Duration, error) {
	costs := crypto.DefaultCosts[crypto.MD5RSA1024]
	costs.Verify = verify
	run := func(proto types.Protocol) (time.Duration, error) {
		suite, err := crypto.NewModelSuiteWithCosts(crypto.MD5RSA1024, costs)
		if err != nil {
			return 0, err
		}
		opts := harness.Options{
			Protocol:      proto,
			F:             2,
			SuiteImpl:     suite,
			BatchInterval: 200 * time.Millisecond,
			Mirror:        proto == types.SC,
			Net:           netsim.LANDefaults(),
			Seed:          seed,
			Load:          harness.LoadFor(200*time.Millisecond, 1024),
		}
		c, err := harness.New(opts)
		if err != nil {
			return 0, err
		}
		c.Start()
		c.RunFor(time.Second)
		c.Events.StartWindow(c.Now())
		c.RunFor(benchWindow)
		return c.Events.LatencySummary().Mean, nil
	}
	sc, err := run(types.SC)
	if err != nil {
		return 0, err
	}
	bft, err := run(types.BFT)
	if err != nil {
		return 0, err
	}
	return bft - sc, nil
}

// BenchmarkRealCrypto measures the real (non-modelled) suites on this
// machine, for comparison with the calibrated 2006 constants.
func BenchmarkRealCrypto(b *testing.B) {
	for _, name := range crypto.StudySuites() {
		suite, err := crypto.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		priv, pub, err := suite.GenerateKey(cryptorand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		digest := suite.Digest([]byte("bench"))
		b.Run(string(name)+"/sign", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := suite.Sign(cryptorand.Reader, priv, digest); err != nil {
					b.Fatal(err)
				}
			}
		})
		sig, err := suite.Sign(cryptorand.Reader, priv, digest)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(name)+"/verify", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := suite.Verify(pub, digest, sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
