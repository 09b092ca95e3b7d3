package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"dirigent/internal/core"
)

// compress is the single time-compression factor C applied to every
// window on the invoke and scale path: sandbox latencies, the autoscale
// and metric periods, the Knative function windows, the post-election
// no-downscale window and trace time. Liveness settings stay at the
// binaries' defaults because no workload injects faults.
const compress = 25

// image is the container image every benchmark function runs; each
// worker maps it to the benchmark-owned handler (execLog.serve).
const image = "perfbench/echo"

// op is one scheduled invocation. Its index in the schedule is its
// request ID.
type op struct {
	at    time.Duration // offset from the start of the load
	fn    int32         // index into workload.functions
	exec  time.Duration // requested execution time
	async bool
}

// workload is one named traffic mix: the functions it registers, the
// open-loop schedule it replays and what it must show to be valid.
type workload struct {
	name      string
	functions []core.Function
	// pinned is how many warm sandboxes per function set-up waits for.
	pinned int
	// limit is the sched bound a sync invocation must meet to count
	// toward goodput.
	limit time.Duration
	// coldMin and coldMax bound the cold share of sync invocations, so
	// the workload provably loads the path it claims.
	coldMin, coldMax float64
	// unloaded names the per-layer metrics of paths the workload does
	// not load; every other one must be measured in a traced run.
	unloaded map[string]bool
	ops      []op
}

var workloadNames = []string{"warm-steady", "cold-churn"}

// churnAsyncEach makes every churnAsyncEach-th cold-churn op async, so
// durable accepts (store writes) and the async queue are loaded by a
// workload whose figures are steady across seeds.
const churnAsyncEach = 10

// buildWorkload generates the named workload's functions and a schedule
// covering dur of load, entirely from seed.
func buildWorkload(name string, seed int64, dur time.Duration) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "warm-steady":
		// 16 functions pinned at 8 warm sandboxes, 2 ms exec, Poisson
		// 2000/s: the warm hot path only, no CP scheduling. A request
		// that finds every sandbox of its function busy waits in the
		// cold queue; with 4 or 5 per function, stalls of the VM
		// (20-30% host steal) pushed those past the 1% the check allows.
		const pinned = 8
		w := &workload{name: name, pinned: pinned, limit: 10 * time.Millisecond, coldMin: 0, coldMax: 0.01,
			unloaded: setOf(coldPathMetrics...)}
		w.functions = makeFunctions("ws", 16, pinned, pinned)
		for _, at := range poisson(rng, 2000, dur) {
			w.ops = append(w.ops, op{at: at, fn: int32(rng.Intn(16)), exec: 2 * time.Millisecond})
		}
		return w, nil
	case "cold-churn":
		// 600 scale-from-zero functions in a seeded round-robin at
		// 100/s: each comes back every 6 s, after its sandbox was torn
		// down, so every invocation is a cold start. Every 10th is async.
		const n = 600
		w := &workload{name: name, limit: 250 * time.Millisecond, coldMin: 0.99, coldMax: 1,
			unloaded: setOf("dataplane.warm_self_p50_us")}
		w.functions = makeFunctions("cc", n, 0, 0)
		perm := rng.Perm(n)
		for i, at := range poisson(rng, 100, dur) {
			w.ops = append(w.ops, op{at: at, fn: int32(perm[i%n]), exec: 2 * time.Millisecond, async: i%churnAsyncEach == churnAsyncEach-1})
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// coldPathMetrics are the per-layer metrics of sandbox creation, the
// cold queue and async accepts: warm-steady creates no sandbox after
// set-up, sends nothing async and so writes no store under load.
var coldPathMetrics = []string{
	"dataplane.cold_wait_p50_ms", "dataplane.cold_wait_p99_ms", "dataplane.dispatch_p50_ms",
	"dataplane.async_accept_p50_ms", "dataplane.async_accept_p99_ms", "dataplane.async_sched_p50_ms",
	"controlplane.metric_wait_p50_ms", "controlplane.sweep_wait_p50_ms", "controlplane.fanout_p50_ms",
	"controlplane.creates_per_cold_start", "worker.create_p50_ms", "worker.create_batch_mean",
	"store.records_per_round",
}

func setOf(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

func makeFunctions(prefix string, n, minScale, maxScale int) []core.Function {
	sc := core.DefaultScalingConfig()
	sc.StableWindow /= compress
	sc.PanicWindow /= compress
	sc.ScaleToZeroGrace /= compress
	sc.MinScale, sc.MaxScale = minScale, maxScale
	fns := make([]core.Function, n)
	for i := range fns {
		fns[i] = core.Function{
			Name:    fmt.Sprintf("%s-%03d", prefix, i),
			Image:   image,
			Port:    8080,
			Scaling: sc,
		}
	}
	return fns
}

// poisson returns the arrival offsets of a Poisson process at rate per
// second over [0, dur), conditioned on its expected count: that many
// uniform draws, sorted. Fixing the count keeps the seed from moving the
// offered load, which at cold-churn's 100/s varies by 2% over 30 s.
func poisson(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	out := make([]time.Duration, int(rate*dur.Seconds()))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	slices.Sort(out)
	return out
}
