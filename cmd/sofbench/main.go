// Command sofbench regenerates the figures of the paper's evaluation
// (Section 5) on the virtual-time simulator and prints the series the
// paper plots.
//
// Usage:
//
//	sofbench -fig 4 [-f 2] [-window 30s]   # order latency vs batching interval
//	sofbench -fig 5 [-f 2] [-window 30s]   # throughput vs batching interval
//	sofbench -fig 6 [-f 2]                 # fail-over latency vs BackLog size
//	sofbench -fig all
//	sofbench -scenarios [-seed N] [-out BENCH_scenarios.json]  # chaos/soak scenario campaign
//	sofbench -scenarios -smoke                # short seeded campaign subset (CI)
//
// Performance claims are not made from this command: the repository's
// benchmark is the bench/ module (sh bench/run.sh).
//
// -scenarios runs the scripted chaos/soak campaign instead: real-TCP
// clusters under WAN link profiles, partitions, restart storms and
// adversarial process twins, asserting single total order, zero
// committed-request loss and fail-over completion on every run, and
// writing the recorded series to BENCH_scenarios.json. Every random choice
// derives from -seed, so a failing campaign replays exactly; the seed is
// printed on start and on any invariant violation. Combined with -smoke it
// runs the short CI subset (one WAN profile, one adversary, one restart
// storm, one sharded pair partition, one overload brownout); without
// -scenarios, -smoke is rejected.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/sof-repro/sof/internal/crypto"
	"github.com/sof-repro/sof/internal/harness"
	"github.com/sof-repro/sof/internal/types"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 4, 5, 6 or all")
		f         = flag.Int("f", 2, "fault-tolerance parameter f")
		window    = flag.Duration("window", 30*time.Second, "measured (virtual) window per point")
		seed      = flag.Int64("seed", 1, "simulation seed")
		scenarios = flag.Bool("scenarios", false, "run the seeded chaos/soak scenario campaign and write -out")
		smoke     = flag.Bool("smoke", false, "with -scenarios: run the short CI subset of the campaign")
		out       = flag.String("out", "BENCH_scenarios.json", "output file for -scenarios")
	)
	flag.Parse()

	if *smoke && !*scenarios {
		fmt.Fprintln(os.Stderr, "-smoke selects the short scenario campaign and needs -scenarios")
		flag.Usage()
		os.Exit(2)
	}
	if *scenarios {
		if err := runScenarios(*out, *seed, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	switch *fig {
	case "4":
		runFig45(*f, *window, *seed, true)
	case "5":
		runFig45(*f, *window, *seed, false)
	case "6":
		runFig6(*f, *seed)
	case "all":
		runFig45(*f, *window, *seed, true)
		runFig45(*f, *window, *seed, false)
		runFig6(*f, *seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

func runFig45(f int, window time.Duration, seed int64, latency bool) {
	figure := "5 (throughput, msgs/s committed per order process)"
	if latency {
		figure = "4 (order latency)"
	}
	fmt.Printf("=== Figure %s, f=%d ===\n", figure, f)
	protos := []types.Protocol{types.CT, types.SC, types.BFT}
	for _, suite := range crypto.StudySuites() {
		fmt.Printf("\n--- crypto %s ---\n", suite)
		fmt.Printf("%-12s", "interval")
		for _, p := range protos {
			fmt.Printf("%12s", p)
		}
		fmt.Println()
		for _, interval := range harness.PaperIntervals {
			fmt.Printf("%-12s", interval)
			for _, proto := range protos {
				pt, err := harness.RunLatencyThroughputPoint(proto, suite, f, interval, window, seed)
				if err != nil {
					fmt.Printf("%12s", "err")
					continue
				}
				if latency {
					fmt.Printf("%12s", pt.Latency.Mean.Round(100*time.Microsecond))
				} else {
					fmt.Printf("%12.1f", pt.Throughput)
				}
			}
			fmt.Println()
		}
	}
	fmt.Println()
}

// runScenarios runs the chaos/soak campaign and persists the report even
// when invariants fail, so the violating series is inspectable alongside
// the printed replay seed.
func runScenarios(path string, seed int64, smoke bool) error {
	rep, runErr := harness.RunScenarioCampaign(harness.CampaignOptions{
		Seed:  seed,
		Smoke: smoke,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return runErr
}

func runFig6(f int, seed int64) {
	fmt.Printf("=== Figure 6 (fail-over latency vs BackLog size), f=%d ===\n", f)
	for _, suite := range crypto.StudySuites() {
		fmt.Printf("\n--- crypto %s ---\n", suite)
		fmt.Printf("%-10s%14s%14s\n", "backlog", "SC", "SCR")
		for _, kb := range harness.PaperBacklogKBs {
			fmt.Printf("%-10s", fmt.Sprintf("%dKB", kb))
			for _, proto := range []types.Protocol{types.SC, types.SCR} {
				pt, err := harness.RunFailOverPoint(proto, suite, f, kb, seed)
				if err != nil {
					fmt.Printf("%14s", "err")
					continue
				}
				fmt.Printf("%14s", pt.Latency.Round(10*time.Microsecond))
			}
			fmt.Println()
		}
	}
	fmt.Println()
}
