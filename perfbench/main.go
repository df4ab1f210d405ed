// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed window and prints, as the last line of standard
// output, one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with
// telemetry off; with -trace 1 they are the per-layer metrics of a
// separate traced run. A human-readable table goes to standard error.
// The exit code is 0 only when every output checked was correct.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench -workload walk-256 -seed 1 -seconds 30 -trace 0
//
// Workloads: walk-256, walk-1024, serve-spec. See README.md in this
// directory for what each measures and why.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

//go:embed golden.json
var goldenJSON []byte

// End-to-end metric names and units.
const (
	mSetup   = "setup_s"
	mWalk    = "walk_s"
	mHotP50  = "hot_p50_ms"
	mColdP50 = "cold_p50_ms"
	mRSS     = "peak_rss_mb"
)

var units = map[string]string{
	mSetup: "s", mWalk: "s", mHotP50: "ms", mColdP50: "ms", mRSS: "MiB",
}

// The tail latencies and max_rps are reported by the traced run, with the
// per-layer metrics: on a 2-CPU host shared with other tenants they spread
// too widely from run to run to hold a bound.
const (
	mHotP99  = "hot_p99_ms"
	mColdP90 = "cold_p90_ms"
	mMaxRPS  = "max_rps"
)

// layerMetrics are the per-layer metrics every traced run reports, with
// their units. A layer a workload does not exercise reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"btpc.encode_s", "s"}, {"trace.accesses", "count"},
	{"reuse.analyze_s", "s"}, {"reuse.analyzed_accesses", "count"},
	{"core.profile_s", "s"}, {"core.structuring_s", "s"}, {"core.hierarchy_s", "s"},
	{"core.budget_s", "s"}, {"core.allocation_s", "s"}, {"core.evaluations", "count"},
	{"sbd.distribute_s", "s"}, {"sbd.balance_calls", "count"}, {"sbd.balance_passes", "count"},
	{"sbd.balance_moves", "count"}, {"sbd.move_yield", "ratio"},
	{"assign.s", "s"}, {"assign.nodes", "count"}, {"assign.pruned_bound", "count"},
	{"assign.prune_ratio", "ratio"}, {"assign.nonoptimal", "count"},
	{"memo.schedule.hit_rate", "ratio"}, {"memo.loop_patterns.hit_rate", "ratio"},
	{"memo.pruned_patterns.hit_rate", "ratio"},
	{"memo.requests.hit_rate", "ratio"}, {"memo.requests.evictions", "count"},
	{"server.dedup_hits", "count"}, {"server.warm_seeds", "count"},
	{"server.decode_ms", "ms"}, {"server.encode_ms", "ms"},
	{"server.latency_p50_ms", "ms"}, {"transport.overhead_ms", "ms"},
	{"server.queued", "count"}, {"server.rejected_overload", "count"},
	{"cluster.routed", "count"}, {"cluster.forward_share", "ratio"},
	{"cluster.fallback_local", "count"}, {"assign.subtree_splits", "count"},
	{"pool.spawns", "count"}, {"pool.inline_runs", "count"},
	{"go.alloc_mb", "MiB"}, {"go.gc_cycles", "count"},
	{"loadgen.lag_p99_ms", "ms"}, {"loadgen.backlog_max", "count"},
	{"bench.trace_overhead_frac", "ratio"},
	{mHotP99, "ms"}, {mColdP90, "ms"}, {mMaxRPS, "1/s"},
}

// metrics maps metric names to values; units come from the tables above.
type metrics map[string]float64

// fillLayers reports 0 for every per-layer metric the workload does not
// exercise.
func (m metrics) fillLayers() {
	for _, l := range layerMetrics {
		if _, ok := m[l.name]; !ok {
			m[l.name] = 0
		}
	}
}

func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	for _, l := range layerMetrics {
		if l.name == name {
			return l.unit
		}
	}
	return ""
}

// share is one layer's time in a traced run, reported against ShareBase.
type share struct {
	layer   string
	seconds float64
}

// outcome is one run's result.
type outcome struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   metrics
	Errors    []string // first few failures, for standard error
	Notes     []string // run-validity notes, for standard error
	Shares    []share
	ShareBase float64 // seconds the shares are measured against
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "walk-256, walk-1024 or serve-spec")
	seed := fs.Int64("seed", 1, "workload seed: the same seed makes the same inputs")
	seconds := fs.Int("seconds", 30, "measurement window in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	writeGolden := fs.String("write-golden", "", "recompute the walk output hashes and write them to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeGolden != "" {
		return regenGolden(*writeGolden, stderr)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintf(stderr, "perfbench: golden.json: %v\n", err)
		return 1
	}
	window := time.Duration(*seconds) * time.Second
	var out outcome
	switch *workload {
	case "walk-256", "walk-1024":
		size := 256
		if *workload == "walk-1024" {
			size = 1024
		}
		if *traced == 1 {
			out = traceWalk(size, *seed, window, golden)
		} else {
			out = runWalk(size, *seed, window, golden)
		}
	case "serve-spec":
		out = runServe(serveSpec, *seed, window, *traced == 1)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q\n", *workload)
		return 2
	}
	for _, e := range out.Errors {
		fmt.Fprintln(stderr, "perfbench: FAIL:", e)
	}
	if out.Attempted == 0 {
		fmt.Fprintln(stderr, "perfbench: nothing was measured")
		return 1
	}
	for _, n := range out.Notes {
		fmt.Fprintln(stderr, "perfbench: note:", n)
	}
	printTable(stderr, *workload, out)
	res := resultJSON{Correct: out.Correct, Attempted: out.Attempted, Failed: out.Failed,
		Metrics: make(map[string]metricJSON, len(out.Metrics))}
	for name, v := range out.Metrics {
		res.Metrics[name] = metricJSON{Value: v, Unit: unitOf(name)}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func printTable(w io.Writer, workload string, out outcome) {
	fmt.Fprintf(w, "%s: %d attempted, %d failed, correct=%t\n", workload, out.Attempted, out.Failed, out.Correct)
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", n, out.Metrics[n], unitOf(n))
	}
	if len(out.Shares) > 0 && out.ShareBase > 0 {
		fmt.Fprintf(w, "layer shares of %.4f s:\n", out.ShareBase)
		for _, s := range out.Shares {
			fmt.Fprintf(w, "  %-38s %9.4f s %6.1f%%\n", s.layer, s.seconds, 100*s.seconds/out.ShareBase)
		}
	}
}

// regenGolden recomputes the walk output hashes of every golden image at
// both walk sizes and writes them as JSON to path.
func regenGolden(path string, stderr io.Writer) int {
	golden := make(map[string]string)
	for _, size := range []int{256, 1024} {
		for im := uint64(1); im <= goldenImages; im++ {
			res, err := core.RunAll(core.DemoConfig{Size: size, Seed: im}, core.DefaultEvalParams())
			if err == nil {
				golden[goldenKey(size, im)], err = hashResults(res)
			}
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: size %d image %d: %v\n", size, im, err)
				return 1
			}
		}
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %d hashes to %s\n", len(golden), strings.TrimSpace(path))
	return 0
}
