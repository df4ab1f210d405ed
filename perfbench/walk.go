package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/btpc"
	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/reuse"
	"repro/internal/trace"
)

// The walk workloads: the full methodology walk (core.RunAll) in a closed
// loop with one caller. Every walk runs on a fresh session (cold memo,
// GOMAXPROCS-wide pool), as a designer starting an exploration pays it.

const (
	// goldenImages is the number of synthetic images per size whose walk
	// hashes golden.json pins; the workload seed picks a block of
	// walkImages of them.
	goldenImages = 16
	walkImages   = 4
	// setupRepeats is how often a run sets up (fresh session plus one
	// discarded warm-up walk) to report the median as setup_s.
	setupRepeats = 3
)

// walkImageSeeds returns the synthetic-image seeds one run walks, in
// rotation: the workload seed's block of walkImages consecutive entries of
// the golden set. The golden set holds goldenImages/walkImages = 4
// blocks: two seeds walk the same images only when they are equal modulo
// 4, and otherwise share none.
func walkImageSeeds(seed int64) []uint64 {
	start := (seed * walkImages) % goldenImages
	if start < 0 {
		start += goldenImages
	}
	out := make([]uint64, walkImages)
	for j := range out {
		out[j] = 1 + uint64(start) + uint64(j)
	}
	return out
}

func goldenKey(size int, imageSeed uint64) string { return fmt.Sprintf("%d/%d", size, imageSeed) }

// hashResults is the walk's output fingerprint: SHA-256 of the JSON wire
// form (every table, figure and decision).
func hashResults(r *core.Results) (string, error) {
	w, err := r.Wire()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(w)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// walker runs walks of one size and checks every result against golden.
type walker struct {
	size   int
	golden map[string]string
	failed int
	walks  int
	errs   []string
	walls  []float64 // each walk's wall time in seconds, steal included
}

// walk runs one RunAll on ep, times it and checks its output. The time
// returned is the walk's wall time less the share the hypervisor stole
// from the machine's CPUs meanwhile: on a shared host that share moved
// from 0 to 18% between walks, and the median walk with it, by more than
// the program's own run-to-run spread.
func (w *walker) walk(imageSeed uint64, ep core.EvalParams) (time.Duration, *core.Results) {
	cfg := core.DemoConfig{Size: w.size, Seed: imageSeed}
	clock := startClock()
	res, err := core.RunAllContext(context.Background(), cfg, ep)
	wall, d := clock.stop()
	w.walls = append(w.walls, wall.Seconds())
	w.check(imageSeed, res, err)
	return d, res
}

func (w *walker) check(imageSeed uint64, res *core.Results, err error) {
	w.walks++
	if err == nil {
		var h string
		h, err = hashResults(res)
		if err == nil && h != w.golden[goldenKey(w.size, imageSeed)] {
			err = fmt.Errorf("walk %dx%d image %d: output hash %s differs from golden", w.size, w.size, imageSeed, h[:12])
		}
	}
	if err != nil {
		w.failed++
		if len(w.errs) < 5 {
			w.errs = append(w.errs, err.Error())
		}
	}
}

func (w *walker) outcome(m metrics) outcome {
	return outcome{Correct: w.failed == 0, Attempted: w.walks, Failed: w.failed, Metrics: m, Errors: w.errs}
}

func (w *walker) setup(images []uint64) float64 {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		d, _ := w.walk(images[i%len(images)], core.DefaultEvalParams())
		setups = append(setups, d.Seconds())
	}
	return median(setups)
}

// runWalk measures the walk workload's end-to-end metrics: walks, each on
// a fresh session, until the window closes. A walk has no hot or cold
// request class, but every run reports every end-to-end metric, so the two
// latency metrics repeat walk_s in ms: they gate the same number again
// and add no measurement.
func runWalk(size int, seed int64, window time.Duration, golden map[string]string) outcome {
	w := &walker{size: size, golden: golden}
	images := walkImageSeeds(seed)
	if _, ok := golden[goldenKey(size, images[0])]; !ok {
		return outcome{Errors: []string{fmt.Sprintf("no golden hashes for size %d", size)}}
	}
	setup := w.setup(images)
	w.walls = nil

	var walks []float64
	end := time.Now().Add(window)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		runtime.GC()
		d, _ := w.walk(images[i%len(images)], core.DefaultEvalParams())
		walks = append(walks, d.Seconds())
	}
	m := metrics{}
	m[mSetup] = setup
	m[mWalk] = median(walks)
	m[mHotP50] = 1e3 * m[mWalk]
	m[mColdP50] = 1e3 * m[mWalk]
	m[mRSS] = peakRSSMB()
	out := w.outcome(m)
	out.Notes = []string{fmt.Sprintf("%d timed walks: median wall time %.4f s with steal, %.4f s without",
		len(walks), median(w.walls), m[mWalk])}
	return out
}

// stepTimes are the methodology steps of one walk, timed around core's
// public step functions called in RunAll order.
type stepTimes struct {
	profile, macp, structuring, hierarchy, budget, allocation time.Duration
}

// stepwiseWalk repeats RunAll step by step through core's public
// functions, timing each step; the result must hash like RunAll's.
func stepwiseWalk(cfg core.DemoConfig, ep core.EvalParams) (*core.Results, stepTimes, error) {
	ctx := context.Background()
	var st stepTimes
	t := time.Now()
	lap := func(d *time.Duration) {
		now := time.Now()
		*d = now.Sub(t)
		t = now
	}
	demo, err := core.BuildDemonstrator(cfg)
	if err != nil {
		return nil, st, err
	}
	lap(&st.profile)
	ep = ep.ScaleTo(demo.Config.Size)
	r := &core.Results{Demo: demo}
	r.MACP = core.AnalyzeMACP(demo.Spec, demo.CycleBudget, ep)
	lap(&st.macp)

	if r.Structuring, err = core.ExploreStructuringContext(ctx, demo, ep); err != nil {
		return nil, st, err
	}
	r.StructChoice = minPower(r.Structuring)
	lap(&st.structuring)

	if r.Hierarchy, r.Hierarchies, err = core.ExploreHierarchyContext(ctx, r.StructChoice.Spec, demo, ep); err != nil {
		return nil, st, err
	}
	r.HierChoice = minPower(r.Hierarchy)
	for i, v := range r.Hierarchy {
		if v == r.HierChoice {
			r.HierPlan = r.Hierarchies[i]
		}
	}
	lap(&st.hierarchy)

	if r.Budgets, err = core.ExploreBudgetsContext(ctx, r.HierChoice.Spec, demo.CycleBudget, ep); err != nil {
		return nil, st, err
	}
	r.BudgetChoice = core.ChooseBudget(r.Budgets, 0.05, 0.10)
	lap(&st.budget)

	r.Allocations, r.AllocCounts, err = core.ExploreAllocationsContext(
		ctx, r.BudgetChoice.Spec, r.BudgetChoice.Dist, []int{4, 5, 8, 10, 14}, ep)
	if err != nil {
		return nil, st, err
	}
	pts := make([]pareto.Point, len(r.Allocations))
	for i, v := range r.Allocations {
		pts[i] = pareto.Point{Label: v.Label, Area: v.Cost.OnChipArea, Power: v.Cost.TotalPower()}
	}
	best, _ := pareto.Best(pts, 0.5, 1, 0)
	for _, v := range r.Allocations {
		if v.Label == best.Label {
			r.AllocChoice = v
		}
	}
	r.Final = r.AllocChoice
	lap(&st.allocation)
	return r, st, nil
}

// minPower is RunAll's per-step decision rule.
func minPower(vs []*core.Variant) *core.Variant {
	best := vs[0]
	for _, v := range vs[1:] {
		if v.Cost.TotalPower() < best.Cost.TotalPower() {
			best = v
		}
	}
	return best
}

// nonOptimal counts the walk's variants whose assignment is not proven
// optimal.
func nonOptimal(r *core.Results) int {
	n := 0
	count := func(v *core.Variant) {
		if v != nil && v.Asgn != nil && !v.Asgn.Optimal {
			n++
		}
	}
	for _, v := range r.Structuring {
		count(v)
	}
	for _, v := range r.Hierarchy {
		count(v)
	}
	for _, p := range r.Budgets {
		count(p.Variant)
	}
	for _, v := range r.Allocations {
		count(v)
	}
	return n
}

// traceWalk is the walk workload's traced run. Each round makes an
// untraced walk, a traced walk (obs.Observer attached: counters and stage
// histograms), a stepwise walk, and the benchmark's own calls into the
// profiling layers (btpc encode with an address trace, reuse analysis);
// every walk runs on a fresh session.
func traceWalk(size int, seed int64, window time.Duration, golden map[string]string) outcome {
	w := &walker{size: size, golden: golden}
	images := walkImageSeeds(seed)
	if _, ok := golden[goldenKey(size, images[0])]; !ok {
		return outcome{Errors: []string{fmt.Sprintf("no golden hashes for size %d", size)}}
	}
	w.setup(images[:1])

	// samples holds each round's value of a metric, or of one of the
	// walk times below; the run reports medians over rounds.
	const untraced, traced = "walk.untraced", "walk.traced"
	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	med := func(name string) float64 { return median(samples[name]) }
	// Every round walks the seed's first image, so each count repeats
	// round to round unless the program itself is nondeterministic.
	im := images[0]
	cfg := core.DemoConfig{Size: size, Seed: im}
	end := time.Now().Add(window)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		runtime.GC()
		d, _ := w.walk(im, core.DefaultEvalParams())
		add(untraced, d.Seconds())

		o := obs.New()
		ep := core.DefaultEvalParams()
		ep.Obs = o
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, res := w.walk(im, ep)
		runtime.ReadMemStats(&after)
		add(traced, d.Seconds())
		add("go.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		add("go.gc_cycles", float64(after.NumGC-before.NumGC))
		snap := o.Snapshot()
		add("sbd.distribute_s", float64(snap.Stages["sbd.distribute"].SumUS)/1e6)
		add("assign.s", float64(snap.Stages["assign"].SumUS)/1e6)
		for _, name := range []string{"core.evaluations", "sbd.balance_calls", "sbd.balance_passes",
			"sbd.balance_moves", "assign.nodes", "assign.pruned_bound", "assign.subtree_splits",
			"reuse.analyzed_accesses"} {
			add(name, float64(snap.Counters[name]))
		}
		if res != nil {
			add("assign.nonoptimal", float64(nonOptimal(res)))
		}
		for _, sp := range []memo.Space{memo.Schedule, memo.LoopPatterns, memo.PrunedPatterns} {
			add("memo."+sp.String()+".hit_rate", ep.Memo.Stats(sp).HitRate())
		}
		spawns, inline := ep.Workers.Stats()
		add("pool.spawns", float64(spawns))
		add("pool.inline_runs", float64(inline))

		runtime.GC()
		res, st, err := stepwiseWalk(cfg, core.DefaultEvalParams())
		w.check(im, res, err)
		add("core.profile_s", st.profile.Seconds())
		add("core.macp_s", st.macp.Seconds())
		add("core.structuring_s", st.structuring.Seconds())
		add("core.hierarchy_s", st.hierarchy.Seconds())
		add("core.budget_s", st.budget.Seconds())
		add("core.allocation_s", st.allocation.Seconds())

		// The profiling layers, called directly the way BuildDemonstrator
		// calls them.
		runtime.GC()
		rec := trace.NewRecorder()
		rec.EnableAddressTrace("image")
		src := img.Synthetic(size, size, im)
		t := time.Now()
		_, _, err = btpc.Encode(src, btpc.Params{Quant: 1}, rec)
		add("btpc.encode_s", time.Since(t).Seconds())
		if err != nil {
			w.failed++
			w.errs = append(w.errs, err.Error())
		}
		add("trace.accesses", float64(rec.TotalAccesses()))
		addrs := rec.Addresses("image")
		t = time.Now()
		reuse.Analyze(addrs)
		add("reuse.analyze_s", time.Since(t).Seconds())
	}

	m := metrics{}
	for _, l := range layerMetrics {
		if vs, ok := samples[l.name]; ok {
			m[l.name] = median(vs)
		}
	}
	m["sbd.move_yield"] = ratio(m["sbd.balance_moves"], m["sbd.balance_passes"])
	m["assign.prune_ratio"] = ratio(m["assign.pruned_bound"], m["assign.nodes"])
	m["bench.trace_overhead_frac"] = (med(traced) - med(untraced)) / med(untraced)
	// A walk has no hot class: hot_p99_ms stays 0, like any layer the
	// workload does not exercise.
	m[mColdP90] = 1e3 * quantile(samples[untraced], 0.90)
	var sum float64
	for _, c := range samples[untraced] {
		sum += c
	}
	m[mMaxRPS] = float64(len(samples[untraced])) / sum
	m.fillLayers()

	out := w.outcome(m)
	out.ShareBase = med(untraced)
	out.Shares = []share{
		{"core.profile", med("core.profile_s")}, {"  btpc.encode", med("btpc.encode_s")},
		{"  reuse.analyze", med("reuse.analyze_s")}, {"core.macp", med("core.macp_s")},
		{"core.structuring", med("core.structuring_s")}, {"core.hierarchy", med("core.hierarchy_s")},
		{"core.budget", med("core.budget_s")}, {"core.allocation", med("core.allocation_s")},
		{"sbd.distribute (summed over workers)", med("sbd.distribute_s")},
		{"assign (summed over workers)", med("assign.s")},
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
