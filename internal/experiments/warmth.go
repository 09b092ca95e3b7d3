package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"dirigent/internal/cluster"
	"dirigent/internal/core"
	"dirigent/internal/placement"
	"dirigent/internal/telemetry"
	"dirigent/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "warmth",
		Title: "Warmth: static prewarm pools × {kube-default, cache-aware} placement on the Azure-like trace",
		Run:   runWarmth,
	})
}

// warmthTimeScale compresses trace time onto the wall clock: one trace
// minute replays in one wall second, so timer periods and autoscaler
// windows shrink by the same factor and the trace's temporal structure
// (synchronized timer bursts, idle gaps long enough to scale to zero)
// survives the compression.
const warmthTimeScale = 1.0 / 30.0

type warmthRow struct {
	Placement   string  `json:"placement"` // "kube-default" | "cache-aware"
	Invocations int     `json:"invocations"`
	ColdStarts  int     `json:"cold_starts"`
	ColdP50Ms   float64 `json:"cold_start_p50_ms"`
	ColdP99Ms   float64 `json:"cold_start_p99_ms"`
	// PrewarmHitRate is the fraction of cold creates served by a pool
	// entry. Entries are warmed for the generic base image, so a claim
	// still pays the function's image pull unless the node caches it.
	PrewarmHitRate float64 `json:"prewarm_hit_rate"`
	ImagePulls     int64   `json:"image_pulls"`
}

// runWarmth replays the compressed Azure-like trace against the live
// in-process cluster, with static prewarm pools on every worker, under
// kube-default and cache-aware placement, and reports cold-start latency,
// prewarm hit rate, and image-pull counts. The rows are also committed
// to BENCH_warmth.json.
func runWarmth(w io.Writer, scale float64) error {
	tr := trace.NewAzureLike(trace.Config{
		Functions: scaleInt(96, scale, 12),
		Duration:  maxDuration(time.Duration(float64(12*time.Minute)*scale), 4*time.Minute),
		Seed:      7,
	})
	warmup := warmupFor(tr)
	fmt.Fprintf(w, "trace: %d functions, %d invocations over %v (replayed in %v wall)\n",
		len(tr.Functions), len(tr.Invocations), tr.Duration,
		time.Duration(float64(tr.Duration)*warmthTimeScale).Round(time.Second))

	rows := make([]warmthRow, 0, 2)
	for _, cacheAware := range []bool{false, true} {
		row, err := runWarmthArm(tr, warmup, cacheAware)
		if err != nil {
			return fmt.Errorf("arm %s: %w", row.Placement, err)
		}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-13s inv=%-5d cold=%-4d p50=%6.2fms p99=%7.2fms hit=%5.1f%% pulls=%d\n",
			row.Placement, row.Invocations, row.ColdStarts,
			row.ColdP50Ms, row.ColdP99Ms, 100*row.PrewarmHitRate, row.ImagePulls)
	}

	fmt.Fprintln(w, "# Expected shape: both arms claim from the same static base-image pools, so")
	fmt.Fprintln(w, "# the difference is placement alone. A claimed entry still pulls the")
	fmt.Fprintln(w, "# function's image unless the node caches it; cache-aware placement steers")
	fmt.Fprintln(w, "# repeat cold starts onto nodes whose digest already holds the image, so it")
	fmt.Fprintln(w, "# pulls far fewer images than kube-default and lowers cold-start p99.")

	if scale < 1 {
		// Sub-scale runs (CI smoke) exercise the harness without
		// overwriting the committed paper-scale artifact.
		return nil
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_warmth.json", append(data, '\n'), 0o644)
}

func warmthFunction(spec *trace.FunctionSpec) core.Function {
	fn := core.Function{
		Name:    spec.Name,
		Image:   "registry.local/" + spec.Name,
		Port:    8080,
		Runtime: "containerd",
		Scaling: core.DefaultScalingConfig(),
	}
	// Autoscaler windows compressed like the trace, so functions scale to
	// zero between timer firings just as they would over real minutes.
	fn.Scaling.StableWindow = 300 * time.Millisecond
	fn.Scaling.PanicWindow = 100 * time.Millisecond
	fn.Scaling.ScaleToZeroGrace = 100 * time.Millisecond
	return fn
}

func runWarmthArm(tr *trace.Trace, warmup time.Duration, cacheAware bool) (warmthRow, error) {
	row := warmthRow{Placement: "kube-default"}
	var placer placement.Policy // nil selects the CP's kube-default
	if cacheAware {
		row.Placement = "cache-aware"
		placer = placement.NewCacheAware(1)
	}
	c, err := cluster.New(cluster.Options{
		ControlPlanes:     1,
		DataPlanes:        2,
		Workers:           12,
		Runtime:           "containerd",
		LatencyScale:      0.05,
		AutoscaleInterval: 10 * time.Millisecond,
		MetricInterval:    5 * time.Millisecond,
		// The CP suppresses downscale for NoDownscaleWindow after taking
		// leadership (failover hygiene); the compressed replay needs
		// scale-to-zero from the first second, so effectively disable it.
		NoDownscaleWindow: time.Millisecond,
		HeartbeatTimeout:  200 * time.Millisecond,
		QueueTimeout:      10 * time.Second,
		Prewarm:           12,
		Placer:            placer,
		Seed:              42,
	})
	if err != nil {
		return row, err
	}
	defer c.Shutdown()

	for _, spec := range tr.Functions {
		fn := warmthFunction(spec)
		if err := c.RegisterFunction(fn); err != nil {
			return row, err
		}
		c.RegisterWorkload(fn.Image, 0)
	}

	type sample struct {
		at      time.Duration // trace time
		cold    bool
		schedMs float64
		failed  bool
	}
	samples := make([]sample, len(tr.Invocations))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 512)
	var baseHits, baseMisses, basePulls int64
	snapped := false
	snapshot := func() (hits, misses, pulls int64) {
		hits = c.Metrics.Counter("prewarm_hits").Value()
		misses = c.Metrics.Counter("prewarm_misses").Value()
		for _, cache := range c.Caches {
			_, m := cache.Stats()
			pulls += int64(m)
		}
		return
	}

	start := time.Now()
	for i, inv := range tr.Invocations {
		if !snapped && inv.At >= warmup {
			// Counter baselines at the warmup cutoff: everything before
			// (cache population) is methodology, not measurement.
			baseHits, baseMisses, basePulls = snapshot()
			snapped = true
		}
		at := time.Duration(float64(inv.At) * warmthTimeScale)
		if d := time.Until(start.Add(at)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, name string, traceAt time.Duration) {
			defer wg.Done()
			defer func() { <-sem }()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			resp, err := c.Invoke(ctx, name, nil)
			if err != nil {
				samples[i] = sample{at: traceAt, failed: true}
				return
			}
			samples[i] = sample{
				at:      traceAt,
				cold:    resp.ColdStart,
				schedMs: float64(resp.SchedulingLatencyUs) / 1000,
			}
		}(i, inv.Function.Name, inv.At)
	}
	wg.Wait()
	hits, misses, pulls := snapshot()

	hist := telemetry.NewHistogram()
	for _, s := range samples {
		if s.at < warmup || s.failed {
			continue
		}
		row.Invocations++
		if s.cold {
			row.ColdStarts++
			hist.ObserveMs(s.schedMs)
		}
	}
	row.ColdP50Ms = hist.Percentile(50)
	row.ColdP99Ms = hist.Percentile(99)
	// Denominator: every cold create that consulted the pool (a hit or a
	// miss), counted over the measurement window.
	if claims := (hits - baseHits) + (misses - baseMisses); claims > 0 {
		row.PrewarmHitRate = float64(hits-baseHits) / float64(claims)
	}
	row.ImagePulls = pulls - basePulls
	return row, nil
}
