// Command bench is the repository's benchmark: four named workloads on an
// in-process SC cluster (f = 1) over the live TCP transport, timed from
// outside the program. See README.md in this directory.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one pass, result as the last line
//	bench --seed N [--out FILE]                               every workload, both passes
//	bench --compare A.json B.json                             two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// scratchDir holds everything the benchmark writes: data directories of
// durable clusters, traces and result files. It is relative to the
// working directory, which run.sh keeps at the root of the checkout.
const scratchDir = ".bench_build"

const (
	defaultSeconds = 20
	tracedSeconds  = 8 // the traced pass of a full run
)

func main() {
	if spec := os.Getenv(trialEnv); spec != "" {
		if err := runChild(spec); err != nil {
			fmt.Fprintln(os.Stderr, "bench trial:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "run this one workload and print its result as the last line")
		seed    = flag.Int64("seed", 1, "seed for payload bytes, client interleaving and the fault instant")
		seconds = flag.Int("seconds", defaultSeconds, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: record spans, run the layer drive and report the per-layer metrics")
		out     = flag.String("out", "", "full run: result file (default "+scratchDir+"/result-seed<N>.json)")
		compare = flag.Bool("compare", false, "compare two result files: bench --compare A.json B.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace == 1)
	default:
		err = runAll(*seed, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// environment is the block printed before every result: what the numbers
// were measured on, and the fixed parts of the set-up they depend on.
func environment() map[string]string {
	kernel := "unknown"
	if b, err := exec.Command("uname", "-sr").Output(); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"kernel":     kernel,
		"cluster":    fmt.Sprintf("SC, f=%d, %d order processes, %d clients, live TCP on loopback, HMAC-SHA256", faults, numProcs, clients),
		"preset":     "production: MaxInflightBatches 8, digest-only acks, authenticated resumable sessions, ingress on (no rate limit, brownout off), 10ms batch interval",
		"link_delay": "no injected link delay: latency is processor time plus protocol timers",
	}
}

func printEnvironment(env map[string]string) {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %-10s %s\n", k, env[k])
	}
}

// printResult lists the pass's metrics by name with units, end-to-end
// first, and anything the checks found.
func printResult(res *result) {
	fmt.Printf("== %s seed=%d seconds=%d trace=%v: %d trial(s), attempted %d (the latency sample count), failed %d\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Trials, res.Attempted, res.Failed)
	defs := endToEnd
	if res.Trace {
		defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	for _, d := range defs {
		fmt.Printf("%-36s %14.4f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
	for _, v := range res.Violations {
		fmt.Printf("OUTPUT CHECK FAILED (seed %d): %s\n", res.Seed, v)
	}
	for _, v := range res.Invalid {
		fmt.Printf("RUN INVALID (seed %d): %s\n", res.Seed, v)
	}
}

// err reports failed checks. An invalid run fails the full run only: the
// driver's one-workload mode prints the warning and still reports the
// numbers, because a noisy minute on the host must cost one outlier and
// not the whole series.
func (res *result) err(strict bool) error {
	n := len(res.Violations)
	if strict {
		n += len(res.Invalid)
	}
	if n > 0 {
		return fmt.Errorf("%s seed %d: %d check(s) failed", res.Workload, res.Seed, n)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is the driver's entry: one workload, one pass, and as the last
// line of standard output the result object with the end-to-end metrics
// (untraced) or the per-layer metrics (traced).
func runOne(name string, seed int64, seconds int, trace bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	printEnvironment(environment())
	res, tl, err := runPass(w, seed, time.Duration(seconds)*time.Second, trace)
	if err != nil {
		return fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	printResult(res)
	if tl != nil {
		path := filepath.Join(scratchDir, "trace-"+name+".json")
		if err := tl.write(path); err != nil {
			return err
		}
		fmt.Println("trace written to", path)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		metrics[d.Name] = metricValue{res.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	if err := res.err(false); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// resultFile is what a full run writes and --compare reads.
type resultFile struct {
	Environment map[string]string `json:"environment"`
	Seed        int64             `json:"seed"`
	// Untraced holds each workload's end-to-end pass, Traced its traced
	// pass (whose Metrics also carry the per-layer values).
	Untraced map[string]*result `json:"untraced"`
	Traced   map[string]*result `json:"traced"`
}

// runAll runs every workload twice — untraced for the end-to-end metrics,
// then a shorter traced pass with the layer drive — and writes one result
// file and one trace per workload.
func runAll(seed int64, seconds int, out string) error {
	env := environment()
	printEnvironment(env)
	file := resultFile{Environment: env, Seed: seed,
		Untraced: make(map[string]*result), Traced: make(map[string]*result)}
	var failed []string
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			window := time.Duration(seconds) * time.Second
			if trace {
				window = tracedSeconds * time.Second
			}
			res, tl, err := runPass(w, seed, window, trace)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			printResult(res)
			if err := res.err(true); err != nil {
				failed = append(failed, err.Error())
			}
			if !trace {
				file.Untraced[w.Name] = res
				continue
			}
			file.Traced[w.Name] = res
			if err := tl.write(filepath.Join(scratchDir, "trace-"+w.Name+".json")); err != nil {
				return err
			}
		}
	}
	if out == "" {
		out = filepath.Join(scratchDir, fmt.Sprintf("result-seed%d.json", seed))
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Println("results written to", out, "and traces to", scratchDir)
	if len(failed) > 0 {
		return fmt.Errorf("%s", strings.Join(failed, "; "))
	}
	return nil
}

// compareFiles prints every metric of every workload from two result
// files side by side and fails if an end-to-end metric differs between
// them, either way, by more than its bound.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("--compare takes two result files")
	}
	var files [2]resultFile
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	fmt.Printf("%-16s %-36s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "B vs A", "bound")
	var differ []string
	for _, w := range workloads {
		row := func(a, b *result, d metricDef) {
			if a == nil || b == nil {
				return
			}
			va, vb := a.Metrics[d.Name], b.Metrics[d.Name]
			rel := 0.0
			if va != 0 {
				rel = (vb - va) / va
			}
			verdict, bound := "", ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				if math.Abs(rel) > d.Bound {
					verdict = "  WORSE"
					if (d.Better == lower) == (rel < 0) {
						verdict = "  BETTER"
					}
					differ = append(differ, w.Name+"/"+d.Name)
				}
			}
			fmt.Printf("%-16s %-36s %14.4f %14.4f %+8.1f%% %7s%s\n", w.Name, d.Name, va, vb, 100*rel, bound, verdict)
		}
		for _, d := range endToEnd {
			row(files[0].Untraced[w.Name], files[1].Untraced[w.Name], d)
		}
		for _, d := range perLayer {
			row(files[0].Traced[w.Name], files[1].Traced[w.Name], d)
		}
	}
	if len(differ) > 0 {
		return fmt.Errorf("differ by more than the bound: %s", strings.Join(differ, ", "))
	}
	return nil
}
