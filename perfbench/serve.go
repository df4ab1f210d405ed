package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	dtse "repro"
	"repro/internal/obs"
)

// The serve workload: in-process dtse.Server nodes on loopback listeners,
// fed an open-loop schedule of spec-mode /v1/explore requests. An untraced
// run is one nominal phase, whose latencies are the end-to-end metrics;
// the traced run adds the rate ladder for max_rps and a replay on a ring.

// serveConfig sizes the serve workload.
type serveConfig struct {
	hotKeys    int       // size of the hot set
	coldEvery  int       // every coldEvery-th request is cold, the rest repeat a hot key
	nominalRPS float64   // offered rate of the nominal phase
	ringNodes  int       // nodes of the ring the traced run replays the traffic on
	ladder     []float64 // offered rates for max_rps, ascending, 5% apart
	stepDur    time.Duration
	limitMS    float64 // cold p90 limit, in ms, for a ladder step to pass
	cacheBytes int64   // per-keyspace session-cache cap of each node
	lagBoundMS float64 // a nominal phase whose generator lag p99 exceeds this is invalid
	coldSample int     // cold keys per phase checked against a direct evaluation
}

// measuredMaxRPS is the median max_rps of three --trace 1 runs of
// serve-spec at seed 1 (1858, 1441 and 1410/s) on a 2-vCPU host. The
// nominal rate is a sixth of it, rounded to 10/s: the two CPUs are busy
// about a sixth of the time, so a request seldom waits for one and the
// latencies measure service rather than queueing.
const measuredMaxRPS = 1441.0

// The 90% hot / 10% cold mix is an assumption, not a measurement: no
// traffic record of an exploration service exists to take it from. It
// keeps both classes sampled well enough in a 30 s window at the nominal
// rate, with at least 10 samples beyond hot p99 and cold p90.
var serveSpec = serveConfig{
	hotKeys: 64, coldEvery: 10, nominalRPS: math.Round(measuredMaxRPS/6/10) * 10, ringNodes: 3,
	ladder:  geometric(500, 1.05, 48),
	stepDur: time.Second, limitMS: 100,
	cacheBytes: 512 << 10, lagBoundMS: 50, coldSample: 24,
}

// serveSetupRepeats is how often a serve run builds its fleet and fills
// the hot set; setup_s is the median. Both are cheap, so more repeats than
// the walks' make the median robust.
const serveSetupRepeats = 5

// conns is the generator's connection count: at most nproc requests in
// flight, from nproc sender goroutines.
var conns = runtime.NumCPU()

// maxWindows bounds the windows a phase's percentiles are taken over.
const maxWindows = 10

// ladderStride is the coarse climb's stride through the ladder: every 6th
// rung, 34% apart.
const ladderStride = 6

// geometric returns n rates from start, each factor times the previous,
// rounded to whole requests per second.
func geometric(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Round(start)
		start *= factor
	}
	return out
}

// fleet is the set of in-process server nodes under test.
type fleet struct {
	servers []*dtse.Server
	https   []*httptest.Server
	urls    []string
}

func newFleet(nodes int, cfg serveConfig, traced bool) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < nodes; i++ {
		opts := dtse.ServeOptions{CacheBytes: cfg.cacheBytes}
		if traced {
			opts.Obs = obs.New()
		}
		s := dtse.NewServer(opts)
		h := httptest.NewServer(s.Handler())
		f.servers = append(f.servers, s)
		f.https = append(f.https, h)
		f.urls = append(f.urls, h.URL)
	}
	if nodes > 1 {
		for i, s := range f.servers {
			var peers []string
			for j, u := range f.urls {
				if j != i {
					peers = append(peers, u)
				}
			}
			if err := s.JoinCluster(dtse.ClusterOptions{Self: f.urls[i], Peers: peers}); err != nil {
				f.close()
				return nil, err
			}
		}
	}
	return f, nil
}

// close stops every node: Abort ends the cluster loops, Close waits for
// the listener's connections.
func (f *fleet) close() {
	for i := range f.servers {
		f.servers[i].Abort()
		f.https[i].Close()
	}
}

// client is one sender's HTTP client.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second}
}

// post sends one request and returns its status and body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url+"/v1/explore", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// sample is one completed request of a phase.
type sample struct {
	hot     bool
	latency time.Duration // from when the request was due
	service time.Duration // from when it was sent
	failed  bool
}

// phase is the outcome of driving one schedule at one rate.
type phase struct {
	samples    []sample
	lags       []float64     // ms each request was enqueued after it was due
	backlogMax int           // most due-but-unsent requests seen at an enqueue
	elapsed    time.Duration // first due time to last completion
	// lastLatency is the latency of the last request due.
	lastLatency time.Duration
}

func (p *phase) latencies(hot bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.hot == hot && !s.failed {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

// windowed splits the class's latencies, in the order the requests were
// due, into up to maxWindows consecutive windows, as many as keep at least
// 10 samples beyond the q-quantile in each, and returns the median over
// windows of each window's q-quantile: a transient stall of the host moves
// one window's percentile, not the median.
func (p *phase) windowed(hot bool, q float64) float64 {
	lat := p.latencies(hot)
	n := int(float64(len(lat)) * (1 - q) / 10)
	if n > maxWindows {
		n = maxWindows
	}
	if n < 1 {
		n = 1
	}
	size := len(lat) / n
	var per []float64
	for w := 0; w < n; w++ {
		per = append(per, quantile(lat[w*size:(w+1)*size], q))
	}
	return median(per)
}

func (p *phase) failures() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// checker validates responses as they arrive: every 200 must be a
// non-degraded, optimal answer; hot repeats must equal their key's first
// response byte for byte; sampled cold keys keep their body for the
// post-window comparison with a direct evaluation.
type checker struct {
	mu      sync.Mutex
	first   map[int][]byte // hot key -> first response body
	sampled map[int]bool   // cold keys to keep
	kept    map[int][]byte
	wrong   int
	errs    []string
}

var okMarker = []byte(`"optimal":true,"degraded":false}`)

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wrong++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// check reports whether a response is a correct answer to r.
func (c *checker) check(r request, status int, body []byte) bool {
	if status != http.StatusOK {
		c.fail("key %d: status %d: %.200s", r.key, status, body)
		return false
	}
	if !bytes.Contains(body, okMarker) {
		c.fail("key %d: response is degraded or not optimal", r.key)
		return false
	}
	same := true
	c.mu.Lock()
	switch {
	case r.hot && c.first[r.key] == nil:
		c.first[r.key] = body
	case r.hot:
		same = bytes.Equal(body, c.first[r.key])
	case c.sampled[r.key]:
		c.kept[r.key] = body
	}
	c.mu.Unlock()
	if !same {
		c.fail("hot key %d: response differs from its first response", r.key)
	}
	return same
}

// drive offers reqs at rate from conns senders, open loop: request i is
// due at start + i/rate whether or not earlier ones have completed, and
// its latency is timed from its due time.
func drive(reqs []request, rate float64, fronts []string, clients []*http.Client, chk *checker) *phase {
	type item struct {
		r   request
		due time.Time
		idx int
	}
	queue := make(chan item, len(reqs)) // sized to the schedule: the dispatcher never blocks
	p := &phase{samples: make([]sample, len(reqs)), lags: make([]float64, 0, len(reqs))}
	var wg sync.WaitGroup
	var doneMu sync.Mutex
	var lastDone time.Time
	for c := 0; c < len(clients); c++ {
		wg.Add(1)
		go func(client *http.Client) {
			defer wg.Done()
			for it := range queue {
				sent := time.Now()
				status, body, err := post(client, fronts[it.idx%len(fronts)], it.r.body)
				done := time.Now()
				ok := err == nil && chk.check(it.r, status, body)
				if err != nil {
					chk.fail("key %d: %v", it.r.key, err)
				}
				p.samples[it.idx] = sample{hot: it.r.hot, latency: done.Sub(it.due), service: done.Sub(sent), failed: !ok}
				doneMu.Lock()
				if done.After(lastDone) {
					lastDone = done
				}
				doneMu.Unlock()
			}
		}(clients[c])
	}
	start := time.Now().Add(5 * time.Millisecond)
	for i, r := range reqs {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		p.lags = append(p.lags, ms(time.Since(due)))
		queue <- item{r: r, due: due, idx: i}
		if b := len(queue); b > p.backlogMax {
			p.backlogMax = b
		}
	}
	close(queue)
	wg.Wait()
	p.elapsed = lastDone.Sub(start)
	p.lastLatency = p.samples[len(p.samples)-1].latency
	return p
}

// drained reports whether the generator's backlog stayed bounded: the
// last request of the phase completed within limit of its due time. A
// backlog that grows over the phase delays the last request by the whole
// queue in front of it.
func (p *phase) drained(limit time.Duration) bool {
	return p.lastLatency <= limit
}

// serveRun holds one serve run's state.
type serveRun struct {
	cfg     serveConfig
	nodes   int
	traced  bool
	wl      *workload
	chk     *checker
	f       *fleet
	clients []*http.Client
	sent    int
}

// setup builds the fleet and fills the hot set, serveSetupRepeats times;
// the last fleet is kept. It returns the median set-up time.
func (sr *serveRun) setup() (float64, error) {
	var times []float64
	for i := 0; i < serveSetupRepeats; i++ {
		if sr.f != nil {
			sr.f.close()
			sr.f = nil
		}
		runtime.GC()
		t := time.Now()
		f, err := newFleet(sr.nodes, sr.cfg, sr.traced)
		if err != nil {
			return 0, err
		}
		sr.f = f
		for k := 0; k < sr.wl.nHot; k++ {
			r := sr.wl.keys[k]
			status, body, err := post(sr.clients[0], f.urls[k%len(f.urls)], r.body)
			sr.sent++
			if err != nil {
				return 0, fmt.Errorf("hot-set fill: %w", err)
			}
			sr.chk.check(r, status, body)
		}
		times = append(times, time.Since(t).Seconds())
	}
	return median(times), nil
}

// verify compares, after the timed window, every hot key's response and
// the sampled cold keys' responses with a direct evaluation of the same
// spec. It returns the median time, in ms, of the direct evaluations'
// encode (Variant.Wire plus json.Marshal).
func (sr *serveRun) verify() float64 {
	var encodes []float64
	cmp := func(r request, got []byte) {
		want, enc, err := expectedBody(r.spec)
		if err != nil {
			sr.chk.fail("key %d: direct evaluation: %v", r.key, err)
			return
		}
		encodes = append(encodes, ms(enc))
		if !bytes.Equal(got, want) {
			sr.chk.fail("key %d: served body differs from the direct core.Evaluate+Wire body", r.key)
		}
	}
	for k := 0; k < sr.wl.nHot; k++ {
		cmp(sr.wl.keys[k], sr.chk.first[k])
	}
	for k, body := range sr.chk.kept {
		cmp(sr.wl.keys[k], body)
	}
	if len(sr.chk.kept) == 0 {
		sr.chk.fail("no sampled cold key was answered")
	}
	return median(encodes)
}

// nominal draws and drives a nominal-phase schedule lasting d.
func (sr *serveRun) nominal(d time.Duration) (*phase, error) {
	n := int(sr.cfg.nominalRPS * d.Seconds())
	reqs, err := sr.wl.schedule(n, sr.cfg.coldEvery)
	if err != nil {
		return nil, err
	}
	// Sample cold keys evenly over the phase.
	var cold []int
	for _, r := range reqs {
		if !r.hot {
			cold = append(cold, r.key)
		}
	}
	for i := 0; i < sr.cfg.coldSample && len(cold) > 0; i++ {
		sr.chk.sampled[cold[i*len(cold)/sr.cfg.coldSample]] = true
	}
	sr.sent += n
	return drive(reqs, sr.cfg.nominalRPS, sr.f.urls, sr.clients, sr.chk), nil
}

// passes reports whether a phase at rate meets the max_rps conditions:
// nothing failed, cold p90 within the latency limit, and a backlog that
// drained. It also returns the achieved rate and a note.
func (sr *serveRun) passes(p *phase, rate float64) (bool, float64, string) {
	p90 := quantile(p.latencies(false), 0.90)
	limit := time.Duration(sr.cfg.limitMS * float64(time.Millisecond))
	pass := p.failures() == 0 && p90 <= sr.cfg.limitMS && p.drained(limit)
	achieved := float64(len(p.samples)) / p.elapsed.Seconds()
	return pass, achieved, fmt.Sprintf("%.0f/s: achieved %.1f/s, cold p90 %.1f ms, last latency %.1f ms, backlog max %d, pass=%t",
		rate, achieved, p90, ms(p.lastLatency), p.backlogMax, pass)
}

// ladder finds the highest rung of the rate ladder that passes, coarse to
// fine: it climbs every ladderStride-th rung until one fails, then climbs
// rung by rung from the last passing coarse rung until two consecutive
// rungs fail, the failed coarse rung counting as one. It returns the
// achieved rate of the highest passing rung, or floor when none passed.
func (sr *serveRun) ladder(floor float64) (float64, []string, error) {
	best := floor
	var notes []string
	step := func(i int) (bool, error) {
		rate := sr.cfg.ladder[i]
		n := int(rate * sr.cfg.stepDur.Seconds())
		reqs, err := sr.wl.schedule(n, sr.cfg.coldEvery)
		if err != nil {
			return false, err
		}
		sr.sent += n
		p := drive(reqs, rate, sr.f.urls, sr.clients, sr.chk)
		pass, achieved, note := sr.passes(p, rate)
		notes = append(notes, "ladder "+note)
		if pass && achieved > best {
			best = achieved
		}
		return pass, nil
	}
	passed, failed := -1, len(sr.cfg.ladder)
	for i := ladderStride - 1; i < len(sr.cfg.ladder); i += ladderStride {
		ok, err := step(i)
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			failed = i
			break
		}
		passed = i
	}
	// The fine climb may pass the failed coarse rung: one failure is not
	// two consecutive ones.
	fails := 0
	for i := passed + 1; i < len(sr.cfg.ladder) && fails < 2; i++ {
		if i == failed {
			fails++
			continue
		}
		ok, err := step(i)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			fails = 0
		} else {
			fails++
		}
	}
	return best, notes, nil
}

// runServe runs the serve workload: measure when untraced, trace when
// traced; both end with the output check.
func runServe(cfg serveConfig, seed int64, window time.Duration, traced bool) outcome {
	sr := &serveRun{cfg: cfg, nodes: 1,
		chk: &checker{first: map[int][]byte{}, sampled: map[int]bool{}, kept: map[int][]byte{}}}
	for i := 0; i < conns; i++ {
		sr.clients = append(sr.clients, newClient())
	}
	out := outcome{Metrics: metrics{}}
	var err error
	if sr.wl, err = newWorkload(seed, cfg.hotKeys); err == nil {
		if traced {
			err = sr.trace(window, out.Metrics, &out)
		} else {
			err = sr.measure(window, out.Metrics, &out)
		}
	}
	if sr.f != nil {
		sr.f.close()
	}
	if err != nil {
		out.Errors = append(out.Errors, err.Error())
	}
	out.Attempted, out.Failed = sr.sent, sr.chk.wrong
	out.Correct = sr.chk.wrong == 0 && err == nil && out.Correct
	out.Errors = append(sr.chk.errs, out.Errors...)
	return out
}

// measure is the untraced run: the end-to-end metrics.
func (sr *serveRun) measure(window time.Duration, m metrics, out *outcome) error {
	setup, err := sr.setup()
	if err != nil {
		return err
	}
	nom, err := sr.nominal(window)
	if err != nil {
		return err
	}
	rss := peakRSSMB()
	sr.f.close()
	sr.f = nil
	sr.verify()
	m[mSetup] = setup
	m[mHotP50] = nom.windowed(true, 0.50)
	m[mColdP50] = nom.windowed(false, 0.50)
	// There is no walk here, but every run reports every end-to-end
	// metric: walk_s repeats cold_p50_ms in seconds and adds no
	// measurement.
	m[mWalk] = m[mColdP50] / 1e3
	m[mRSS] = rss
	out.Notes = nominalNotes(sr.cfg, nom)
	out.Correct = sr.valid(nom, out)
	return nil
}

// valid applies the generator-lag validity rule to a nominal phase.
func (sr *serveRun) valid(p *phase, out *outcome) bool {
	if lag := quantile(p.lags, 0.99); lag > sr.cfg.lagBoundMS {
		out.Errors = append(out.Errors, fmt.Sprintf("invalid run: generator lag p99 %.1f ms exceeds its bound %.0f ms", lag, sr.cfg.lagBoundMS))
		return false
	}
	return true
}

// metricsJSON is the part of a node's /metrics.json the traced run reads.
type metricsJSON struct {
	Server struct {
		LatencyP50US int64 `json:"latency_p50_us"`
	} `json:"server"`
	Obs  obs.Snapshot `json:"obs"`
	Memo map[string]struct {
		Hits, Misses, Evictions int64
	} `json:"memo"`
}

func scrape(url string) (*metricsJSON, error) {
	resp, err := http.Get(url + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m metricsJSON
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("/metrics.json: %w", err)
	}
	return &m, nil
}

// tracePass runs one nominal phase of half the window on a fresh fleet and
// returns it with the fleet's /metrics.json scrapes (none when untraced).
func (sr *serveRun) tracePass(window time.Duration, nodes int, traced bool) (*phase, []*metricsJSON, error) {
	sr.nodes, sr.traced = nodes, traced
	if _, err := sr.setup(); err != nil {
		return nil, nil, err
	}
	p, err := sr.nominal(window / 2)
	if err != nil {
		return nil, nil, err
	}
	var scrapes []*metricsJSON
	if traced {
		for _, u := range sr.f.urls {
			m, err := scrape(u)
			if err != nil {
				return nil, nil, err
			}
			scrapes = append(scrapes, m)
		}
	}
	return p, scrapes, nil
}

// trace is the traced run. Three passes of the nominal phase, each on a
// fresh fleet:
//
//  1. one untraced node, followed by the rate ladder: the tail latencies,
//     max_rps and the untraced side of the tracing overhead;
//  2. one traced node (obs.Observer attached): the per-layer counters and
//     stage times from its /metrics.json;
//  3. a traced ring of ringNodes nodes joined with JoinCluster, requests
//     spread round-robin over the fronts: the cluster layer.
//
// Decode and encode are timed on the benchmark's own calls.
func (sr *serveRun) trace(window time.Duration, m metrics, out *outcome) error {
	// Pass 1.
	p1, _, err := sr.tracePass(window, 1, false)
	if err != nil {
		return err
	}
	floor := 0.0
	pass, achieved, note := sr.passes(p1, sr.cfg.nominalRPS)
	if pass {
		floor = achieved
	}
	maxRPS, notes, err := sr.ladder(floor)
	if err != nil {
		return err
	}
	out.Notes = append(nominalNotes(sr.cfg, p1), "nominal "+note)
	out.Notes = append(out.Notes, notes...)
	m[mHotP99] = p1.windowed(true, 0.99)
	m[mColdP90] = p1.windowed(false, 0.90)
	m[mMaxRPS] = maxRPS
	m["loadgen.lag_p99_ms"] = quantile(p1.lags, 0.99)
	m["loadgen.backlog_max"] = float64(p1.backlogMax)

	// Pass 2.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p2, solo, err := sr.tracePass(window, 1, true)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	m["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	cold1 := quantile(p1.latencies(false), 0.5)
	m["bench.trace_overhead_frac"] = (quantile(p2.latencies(false), 0.5) - cold1) / cold1
	setLayers(m, solo)
	serverP50 := float64(solo[0].Server.LatencyP50US) / 1e3
	m["server.latency_p50_ms"] = serverP50
	var service []float64
	for _, s := range p2.samples {
		service = append(service, ms(s.service))
	}
	m["transport.overhead_ms"] = median(service) - serverP50
	out.Shares = []share{
		{"assign (summed over workers)", stageSum(solo, "assign")},
		{"sbd.distribute (summed over workers)", stageSum(solo, "sbd.distribute")},
		{"evaluate (summed)", stageSum(solo, "evaluate")},
		{"serve.explore (summed)", stageSum(solo, "serve.explore")},
	}
	out.ShareBase = p2.elapsed.Seconds()

	// Pass 3.
	p3, ring, err := sr.tracePass(window, sr.cfg.ringNodes, true)
	if err != nil {
		return err
	}
	routed, local := counterSum(ring, "cluster.routed"), counterSum(ring, "cluster.local")
	m["cluster.routed"] = routed
	m["cluster.forward_share"] = ratio(routed, routed+local)
	m["cluster.fallback_local"] = counterSum(ring, "cluster.fallback_local")
	m["assign.subtree_splits"] = counterSum(ring, "assign.subtree_splits")
	out.Notes = append(out.Notes, fmt.Sprintf("ring of %d: hot p50 %.3f ms, cold p50 %.3f ms (one node: %.3f, %.3f); serve.forward %.2f s summed",
		sr.cfg.ringNodes, p3.windowed(true, 0.5), p3.windowed(false, 0.5),
		p2.windowed(true, 0.5), p2.windowed(false, 0.5), stageSum(ring, "serve.forward")))
	sr.f.close()
	sr.f = nil

	m["server.encode_ms"] = sr.verify()
	var decodes []float64
	for _, r := range sr.wl.keys {
		t := time.Now()
		if err := decodeRequest(r.body); err != nil {
			sr.chk.fail("key %d: decode: %v", r.key, err)
		}
		decodes = append(decodes, ms(time.Since(t)))
	}
	m["server.decode_ms"] = median(decodes)
	m.fillLayers()
	out.Correct = sr.valid(p1, out)
	return nil
}

func counterSum(scrapes []*metricsJSON, name string) float64 {
	var s int64
	for _, sc := range scrapes {
		s += sc.Obs.Counters[name]
	}
	return float64(s)
}

func stageSum(scrapes []*metricsJSON, name string) float64 {
	var s int64
	for _, sc := range scrapes {
		s += sc.Obs.Stages[name].SumUS
	}
	return float64(s) / 1e6
}

// setLayers sets the per-layer metrics read from the nodes' /metrics.json.
func setLayers(m metrics, scrapes []*metricsJSON) {
	for _, name := range []string{"core.evaluations", "sbd.balance_calls", "sbd.balance_passes",
		"sbd.balance_moves", "assign.nodes", "assign.pruned_bound",
		"server.dedup_hits", "server.warm_seeds", "server.queued", "server.rejected_overload"} {
		m[name] = counterSum(scrapes, name)
	}
	m["sbd.distribute_s"] = stageSum(scrapes, "sbd.distribute")
	m["assign.s"] = stageSum(scrapes, "assign")
	m["sbd.move_yield"] = ratio(m["sbd.balance_moves"], m["sbd.balance_passes"])
	m["assign.prune_ratio"] = ratio(m["assign.pruned_bound"], m["assign.nodes"])
	// A non-optimal answer is a failed request, counted in failed.
	m["assign.nonoptimal"] = 0
	var evictions int64
	for _, sp := range []string{"schedule", "loop_patterns", "pruned_patterns", "requests"} {
		var h, miss int64
		for _, sc := range scrapes {
			h += sc.Memo[sp].Hits
			miss += sc.Memo[sp].Misses
			if sp == "requests" {
				evictions += sc.Memo[sp].Evictions
			}
		}
		m["memo."+sp+".hit_rate"] = ratio(float64(h), float64(h+miss))
	}
	m["memo.requests.evictions"] = float64(evictions)
}

// nominalNotes states the nominal phase's sample counts and generator
// health.
func nominalNotes(cfg serveConfig, p *phase) []string {
	hot, cold := len(p.latencies(true)), len(p.latencies(false))
	notes := []string{fmt.Sprintf("nominal %.0f/s: %d hot and %d cold samples, generator lag p99 %.2f ms, backlog max %d",
		cfg.nominalRPS, hot, cold, quantile(p.lags, 0.99), p.backlogMax)}
	if hot < 1000 || cold < 100 {
		notes = append(notes, "fewer than 10 samples lie beyond hot p99 or cold p90")
	}
	return notes
}
