package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"dirigent/internal/transport"
	"dirigent/internal/worker"
)

const (
	// warmup is load run before any window is measured: first image
	// pulls, first leader-side function state, connection set-up.
	warmup = 2 * time.Second
	// setups is how many times an untraced run brings the stack up;
	// setup_s is their median.
	setups = 5
	// partLen is the length of the parts the measured window is cut
	// into; sched_p50_ms is a median over per-part values, so one stall
	// (a GC cycle, a descheduled VM) moves one part, not the figure.
	partLen = 500 * time.Millisecond
	// sched_p50_ms is the p50 over the invocations of the quiet parts:
	// those in which the hypervisor stole at most quietSteal of the
	// host's CPU time, topped up from the least-steal parts to at least
	// minQuietParts parts holding minQuietSamples invocations. On the
	// 2-vCPU VM this benchmark was built on, steal came and went in
	// stretches of a second or more and reached 10-40% of the CPUs; in
	// those stretches the warm path's p50 rose by up to 3x, its p99 by
	// 5x and the cold path's p50 by about 10%. Short parts find the
	// quiet moments between them: over the same ten runs, IQR/median of
	// warm-steady's quiet-part p50 was 0.26 with 1.5 s parts and 0.10
	// with 0.5 s ones.
	quietSteal      = 0.02
	minQuietParts   = 3
	minQuietSamples = 1000
	// requestTimeout bounds one invocation as the client sees it.
	requestTimeout = 30 * time.Second
	// asyncDrain bounds the wait for accepted async requests to run.
	asyncDrain = 20 * time.Second
	// deadline aborts a run that would overrun its time budget.
	deadline = 170 * time.Second
	// coverageTol is how far the traced per-hop means may sum from the
	// client-observed mean sched.
	coverageTol = 0.10
	// minJoined is the share of a path's requests whose spans must join
	// completely for its breakdown to count as covering the path.
	minJoined = 0.9
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics. Tail latencies and memory
// are not among them: between runs of the same code the warm path's
// tails move by 2-10x with host CPU steal, and cold-churn's heap settles
// at one of two sizes (see doc.go), so they are reported with the
// per-layer metrics instead.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"sched_p50_ms", "ms"}, {"goodput_rps", "1/s"},
	{"ok_frac", "fraction"}, {"cpu_cores", "cores"},
}

// clientDefs are client-side latencies reported with the per-layer
// metrics, taken from the traced run's untraced window.
var clientDefs = []metricDef{
	{"client.sched_p99_ms", "ms"}, {"client.fn_sched_p50_ms", "ms"}, {"client.fn_sched_p90_ms", "ms"},
}

var perLayerDefs = []metricDef{
	{"frontend.self_p50_us", "us"}, {"frontend.failovers", "count"},
	{"transport.hop_p50_us", "us"}, {"transport.rpcs_per_invocation", "count"},
	{"transport.bytes_per_invocation", "bytes"},
	{"dataplane.warm_self_p50_us", "us"}, {"dataplane.cold_wait_p50_ms", "ms"},
	{"dataplane.cold_wait_p99_ms", "ms"}, {"dataplane.dispatch_p50_ms", "ms"},
	{"dataplane.cold_frac", "fraction"}, {"dataplane.async_accept_p50_ms", "ms"},
	{"dataplane.async_accept_p99_ms", "ms"}, {"dataplane.async_sched_p50_ms", "ms"},
	{"dataplane.async_duplicates", "count"}, {"dataplane.endpoint_update_busy_ms_per_s", "ms/s"},
	{"controlplane.metric_wait_p50_ms", "ms"}, {"controlplane.sweep_wait_p50_ms", "ms"},
	{"controlplane.fanout_p50_ms", "ms"}, {"controlplane.metric_entries_per_s", "1/s"},
	{"controlplane.metric_ingest_busy_ms_per_s", "ms/s"}, {"controlplane.ready_busy_ms_per_s", "ms/s"},
	{"controlplane.creates_per_cold_start", "count"},
	{"controlplane.register_p50_ms", "ms"}, {"controlplane.register_lost_functions", "count"},
	{"controlplane.failures_detected", "count"},
	{"worker.create_p50_ms", "ms"}, {"worker.create_batch_mean", "count"},
	{"worker.kills_per_s", "1/s"}, {"worker.invoke_self_p50_us", "us"},
	{"raft.append_per_s", "1/s"}, {"raft.entries_per_round", "count"},
	{"raft.leader_changes", "count"}, {"store.fsync_rounds_per_s", "1/s"},
	{"store.records_per_round", "count"}, {"runtime.gc_cpu_frac", "fraction"},
	{"runtime.alloc_mb_per_s", "MB/s"}, {"runtime.rss_peak_mb", "MB"},
	{"loadgen.late_p99_ms", "ms"}, {"trace.overhead_p50_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(benchmark()) }

func benchmark() int {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of each measured window in seconds")
	traceFlag := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench-run"), "directory for the stores of each set-up")
	flag.Parse()
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v, aborting\n", deadline)
		os.Exit(3)
	})
	traced := *traceFlag == 1
	measured := time.Duration(*seconds) * time.Second
	// Untraced runs measure one window; traced runs measure a half-length
	// untraced window, for the overhead, then a traced one on the same
	// stack.
	untracedWin := window{warmup, warmup + measured}
	length := untracedWin.hi
	var tracedWin window
	if traced {
		untracedWin.hi = warmup + measured/2
		tracedWin = window{untracedWin.hi, untracedWin.hi + measured}
		length = tracedWin.hi
	}
	w, err := buildWorkload(*name, *seed, length)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	env := newEnvironment(*name, *seed, *seconds, traced)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	fmt.Printf("workload %s: %d functions, %d ops over %v\n", w.name, len(w.functions), len(w.ops), length)

	base := time.Now()
	log := newExecLog(len(w.ops), base)
	images := worker.NewImageRegistry()
	images.Register(image, log.serve)
	var rec *recorder
	var wrap func(transport.Transport, string) transport.Transport
	if traced {
		rec = newRecorder(base)
		wrap = rec.wrap
	}

	// Set-up, several times over so setup_s is a median; the last
	// stack stays up for the load.
	n := setups
	if traced {
		n = 1
	}
	var s *stack
	var setupS []float64
	var setup setupResult
	lost := 0
	for k := 0; k < n; k++ {
		st, res, err := startStack(filepath.Join(*workdir, fmt.Sprintf("setup-%d", k)), w, *seed, images, wrap)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		setupS = append(setupS, res.elapsed.Seconds())
		setup = res
		lost += res.lostFunctions
		fmt.Printf("setup %d: %.3f s, %d functions lost to the registration race\n", k+1, res.elapsed.Seconds(), res.lostFunctions)
		if k < n-1 {
			st.stop()
		} else {
			s = st
		}
	}

	r := &run{w: w, res: make([]result, len(w.ops)), log: log, loadStart: time.Since(base) + 50*time.Millisecond}
	inv := &invoker{lb: s.lb, w: w, base: base, res: r.res, timeout: requestTimeout}
	edges := []time.Duration{untracedWin.lo, untracedWin.hi}
	if traced {
		edges = append(edges, tracedWin.hi)
	}
	// Quiet parts are chosen by host steal sampled at each part edge.
	nParts := numParts(untracedWin)
	step := (untracedWin.hi - untracedWin.lo) / time.Duration(nParts)
	partEdges := make([]time.Duration, nParts+1)
	for k := range partEdges {
		partEdges[k] = untracedWin.lo + time.Duration(k)*step
	}
	runtime.GC()
	debug.FreeOSMemory() // set-up garbage must not count toward the load's memory
	snaps, mem, partSteal := load(s, r, inv, base, edges, partEdges, rec)
	drained := drainAsync(r, asyncDrain)
	if traced {
		rec.on.Store(false)
	}

	st := r.clientStats(untracedWin)
	all := r.clientStats(window{0, length})
	checks := []check{
		{"every sync body echoes its request ID", all.echoBad == 0, fmt.Sprintf("%d mismatched", all.echoBad)},
		{"every accepted async request ran", all.asyncLost == 0 && drained,
			fmt.Sprintf("%d never ran, %d ran more than once", all.asyncLost, all.asyncDup)},
		coldShareCheck(w, st),
	}
	var rep report
	if !traced {
		rep = endToEndReport(r, untracedWin, st, snaps, mem, partSteal, setupS)
	} else {
		var more []check
		rep, more = tracedReport(r, rec, tracedWin, st, snaps, mem, setup)
		checks = append(checks, more...)
	}
	for _, e := range inv.errors {
		fmt.Printf("failed %s\n", e)
	}
	fmt.Printf("reported: %d worker/data plane failure detections, %d leader changes after set-up, %d front-end failovers, %d functions lost to the registration race in set-up and re-pushed\n",
		s.failuresDetected(), s.leaderChanges.Load(), s.lbMetrics.Counter("dataplane_failovers").Value(), lost)

	rep.Correct = true
	for _, c := range checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
			rep.Correct = false
		}
		fmt.Printf("check %-40s %s (%s)\n", c.name, status, c.detail)
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if traced && w.unloaded[k] {
			fmt.Printf("metric %-44s %14s %s\n", k, "n/a", rep.Metrics[k].Unit)
			continue
		}
		fmt.Printf("metric %-44s %14.4f %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	stopWithin(s, 20*time.Second)
	fmt.Println(string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

// load runs the open-loop schedule to the end, snapshotting counters at
// each window edge (schedule offsets), sampling the resident set over
// the first window and the host's steal share between part edges. With
// rec set, tracing starts at the second window edge.
func load(s *stack, r *run, inv *invoker, base time.Time, edges, partEdges []time.Duration,
	rec *recorder) ([]counters, memory, []float64) {
	snaps := make([]counters, len(edges))
	var mem memory
	var partSteal []float64
	var snapWG sync.WaitGroup
	snapWG.Add(2)
	go func() {
		defer snapWG.Done()
		partSteal = stealBetween(partEdges, func(e time.Duration) {
			if d := r.loadStart + e - time.Since(base); d > 0 {
				time.Sleep(d)
			}
		})
	}()
	go func() {
		defer snapWG.Done()
		var rssWG sync.WaitGroup
		rssStop := make(chan struct{})
		for k, e := range edges {
			if d := r.loadStart + e - time.Since(base); d > 0 {
				time.Sleep(d)
			}
			snaps[k] = s.snapshot()
			switch k {
			case 0:
				rssWG.Add(1)
				go func() {
					defer rssWG.Done()
					mem = memory{rssPeak: percentile(memSamples(100*time.Millisecond, rssStop), 100)}
				}()
			case 1:
				close(rssStop)
				rssWG.Wait()
				if rec != nil {
					rec.on.Store(true)
				}
			}
		}
	}()
	var wg sync.WaitGroup
	drive(wallClock{base}, r.loadStart, r.w.ops, &wg, inv.fire)
	snapWG.Wait()
	wg.Wait()
	return snaps, mem, partSteal
}

// memory is the process's memory over the first window: the peak
// resident set.
type memory struct {
	rssPeak float64
}

// stealBetween samples the host's steal counters at each edge (waitFor
// blocks until an edge is reached) and returns the steal share of each
// interval between consecutive edges.
func stealBetween(edges []time.Duration, waitFor func(time.Duration)) []float64 {
	var out []float64
	var prevSteal, prevTotal uint64
	for k, e := range edges {
		waitFor(e)
		steal, total := hostCPU()
		if k > 0 {
			out = append(out, ratio(float64(steal-prevSteal), float64(total-prevTotal)))
		}
		prevSteal, prevTotal = steal, total
	}
	return out
}

// quietest returns, in index order, the indexes of the parts whose
// steal is at most limit, adding parts from the least steal up while
// there are fewer than minParts or they hold fewer than minCount
// samples together; NaN steal (no host counters) counts as zero.
func quietest(steal []float64, count []int, limit float64, minParts, minCount int) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	key := func(i int) float64 {
		if math.IsNaN(steal[i]) {
			return 0
		}
		return steal[i]
	}
	sort.SliceStable(idx, func(a, b int) bool { return key(idx[a]) < key(idx[b]) })
	n, have := 0, 0
	for n < len(idx) && (n < minParts || have < minCount || key(idx[n]) <= limit) {
		have += count[idx[n]]
		n++
	}
	idx = idx[:n]
	sort.Ints(idx)
	return idx
}

// endToEndReport is the untraced run's result: the end-to-end metrics
// of the measured window.
func endToEndReport(r *run, win window, st clientStats, snaps []counters, mem memory,
	partSteal, setupS []float64) report {
	wall := snaps[1].wall.Sub(snaps[0].wall).Seconds()
	parts := r.subStats(win, numParts(win))
	count := make([]int, len(parts))
	for i, p := range parts {
		count[i] = len(p.schedMs)
	}
	quiet := quietest(partSteal, count, quietSteal, minQuietParts, minQuietSamples)
	var quietMs []float64
	for _, i := range quiet {
		quietMs = append(quietMs, parts[i].schedMs...)
	}
	vals := map[string]float64{
		"setup_s":      median(setupS),
		"sched_p50_ms": percentile(quietMs, 50),
		"goodput_rps":  float64(st.good) / win.seconds(),
		"ok_frac":      ratio(float64(st.attempted-st.failed), float64(st.attempted)),
		"cpu_cores":    (snaps[1].cpu - snaps[0].cpu).Seconds() / wall,
	}
	rep := report{Attempted: st.attempted, Failed: st.failed, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		rep.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	fmt.Printf("window: %d sync ok, %d cold, %d functions; sched_p50 is over the %d of %d parts with the least host steal\n",
		st.syncOK, st.cold, len(st.fnSchedMs), len(quiet), len(parts))
	fmt.Printf("info runtime.rss_peak_mb %.4f\n", mem.rssPeak)
	fmt.Printf("info host.steal_frac %.4f\n", ratio(float64(snaps[1].steal-snaps[0].steal), float64(snaps[1].hostTotal-snaps[0].hostTotal)))
	fmt.Print("info parts steal_frac/sched_p50_ms")
	for i, p := range parts {
		fmt.Printf(" %.3f/%.4f", partSteal[i], percentile(p.schedMs, 50))
	}
	fmt.Println()
	for name, v := range clientLatencies(st) {
		fmt.Printf("info %s %.4f\n", name, v)
	}
	return rep
}

// tracedReport is the traced run's result: the per-layer metrics of the
// traced window, with the path breakdowns and their coverage checks.
func tracedReport(r *run, rec *recorder, tracedWin window, st clientStats,
	snaps []counters, mem memory, setup setupResult) (report, []check) {
	tst := r.clientStats(tracedWin)
	spans := rec.spans()
	j := buildJoins(spans, rec.nodes, len(r.w.ops))
	vals, warm, cold := perLayer(r, j, tracedWin, snaps[1], snaps[2], st, tst, setup)
	for name, v := range clientLatencies(st) {
		vals[name] = v
	}
	vals["runtime.rss_peak_mb"] = mem.rssPeak
	metrics, missing := layerMetrics(r.w, vals)
	rep := report{Attempted: tst.attempted, Failed: tst.failed, Metrics: metrics}
	checks := []check{{"every loaded per-layer metric measured", len(missing) == 0,
		fmt.Sprintf("%d without samples %v", len(missing), missing)}}
	fmt.Printf("traced window: %d spans, %d sync ok, %d cold\n", len(spans), tst.syncOK, tst.cold)
	printBreakdown("warm path", warm, tst.warmSchedMs)
	printBreakdown("cold path", cold, tst.coldSchedMs)
	switch r.w.name {
	case "cold-churn":
		checks = append(checks, coverageCheck("cold", cold, tst.coldSchedMs))
	case "warm-steady":
		checks = append(checks, coverageCheck("warm", warm, tst.warmSchedMs))
	}
	return rep, checks
}

// layerMetrics turns the traced run's values into the result's
// per-layer metrics. The result must carry every one, so a metric the
// workload does not load is written as 0 (and printed as n/a); one it
// does load but that has no samples, say because a join stopped
// matching, is also written as 0 and returned in missing, which fails a
// check instead of passing for a measured 0.
func layerMetrics(w *workload, vals map[string]float64) (metrics map[string]metricValue, missing []string) {
	metrics = map[string]metricValue{}
	for _, d := range append(append([]metricDef(nil), clientDefs...), perLayerDefs...) {
		v, ok := vals[d.name]
		switch {
		case w.unloaded[d.name]:
			v = 0
		case !ok || math.IsNaN(v) || math.IsInf(v, 0):
			missing = append(missing, d.name)
			v = 0
		}
		metrics[d.name] = metricValue{v, d.unit}
	}
	return metrics, missing
}

// clientLatencies are the client-side tail and per-function latencies
// of a window's statistics.
func clientLatencies(st clientStats) map[string]float64 {
	return map[string]float64{
		"client.sched_p99_ms":    percentile(st.schedMs, 99),
		"client.fn_sched_p50_ms": percentile(st.fnSchedMs, 50),
		"client.fn_sched_p90_ms": percentile(st.fnSchedMs, 90),
	}
}

// numParts is how many parts of about partLen win is cut into.
func numParts(win window) int {
	return max(1, int((win.hi-win.lo+partLen/2)/partLen))
}

// subStats splits win into k equal parts and computes each part's
// client statistics.
func (r *run) subStats(win window, k int) []clientStats {
	out := make([]clientStats, k)
	step := (win.hi - win.lo) / time.Duration(k)
	for i := range out {
		out[i] = r.clientStats(window{win.lo + time.Duration(i)*step, win.lo + time.Duration(i+1)*step})
	}
	return out
}

type check struct {
	name   string
	ok     bool
	detail string
}

func coldShareCheck(w *workload, st clientStats) check {
	share := ratio(float64(st.cold), float64(st.syncOK))
	return check{
		name:   "cold share in bounds",
		ok:     share >= w.coldMin && share <= w.coldMax,
		detail: fmt.Sprintf("%.4f of %d sync invocations, want [%.2f, %.2f]", share, st.syncOK, w.coldMin, w.coldMax),
	}
}

// coverageCheck requires that most of a path's requests joined and that
// their per-hop means add up to the client's mean sched over every
// request of the path, joined or not.
func coverageCheck(path string, b *breakdown, clientMs []float64) check {
	cov := ratio(b.sumOfMeans(), mean(clientMs))
	joined := ratio(float64(b.joined), float64(b.tried))
	return check{
		name:   path + " hops cover client sched",
		ok:     math.Abs(cov-1) <= coverageTol && joined >= minJoined,
		detail: fmt.Sprintf("per-hop means sum to %.4f of the client mean (want within %.2f); %.4f of %d requests joined (want >= %.2f)", cov, coverageTol, joined, b.tried, minJoined),
	}
}

func printBreakdown(title string, b *breakdown, clientMs []float64) {
	if b.joined == 0 {
		return
	}
	fmt.Printf("%s breakdown (%d of %d requests joined; client mean sched %.3f ms):\n",
		title, b.joined, b.tried, mean(clientMs))
	for k, h := range b.hops {
		fmt.Printf("  %-28s mean %9.3f ms  p50 %9.3f ms\n", h, mean(b.ms[k]), median(b.ms[k]))
	}
	fmt.Printf("  %-28s mean %9.3f ms\n", "sum", b.sumOfMeans())
}

// drainAsync waits until every accepted async request has run at least
// once, reporting whether they all did within limit.
func drainAsync(r *run, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for {
		pending := false
		for i := range r.w.ops {
			if r.w.ops[i].async && r.res[i].issued && !r.res[i].err && r.log.count(i) == 0 {
				pending = true
				break
			}
		}
		if !pending {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stopWithin tears the stack down, giving up after limit: the process
// exits right after, which ends whatever is still stuck.
func stopWithin(s *stack, limit time.Duration) {
	done := make(chan struct{})
	go func() {
		s.stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(limit):
		fmt.Fprintln(os.Stderr, "perfbench: stack teardown did not finish")
	}
}
