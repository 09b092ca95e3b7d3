package controlplane

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/dataplane"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// load reads a function's current reported load, summed over data planes.
func (h *cpHarness) load(t *testing.T, name string) float64 {
	t.Helper()
	var v float64
	if !h.cp.withFunction(name, func(fs *functionState) {
		fs.load.advance(h.cp.clk.Now())
		v = fs.load.sum()
	}) {
		t.Fatalf("function %q not registered", name)
	}
	return v
}

func loadReport(dp core.DataPlaneID, interval time.Duration, fn string, inFlight int) *proto.ScalingMetricReport {
	return &proto.ScalingMetricReport{
		DataPlane: dp,
		Interval:  interval,
		Metrics:   []core.ScalingMetric{{Function: fn, InFlight: inFlight}},
	}
}

// newVirtualClockCP starts a single-replica control plane on a virtual
// clock whose sweep and health loops never fire on their own, with f
// registered.
func newVirtualClockCP(t *testing.T) (*cpHarness, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(1_000_000, 0))
	tr := transport.NewInProc()
	db := store.NewMemory()
	cp := New(Config{
		Addr:              "cp0",
		Transport:         tr,
		Clock:             clk,
		LocalStore:        db,
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Hour,
		DataPlaneTimeout:  time.Hour,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cp.Stop)
	h := &cpHarness{tr: tr, cp: cp, db: db}
	fn := fnSpec("f")
	h.call(t, proto.MethodRegisterFunction, core.MarshalFunction(&fn))
	return h, clk
}

// TestSilentDataPlaneLoadExpires: the control plane sums the data planes'
// held values, a data plane's value lapses loadTTLPeriods report periods
// after its last report unless refreshed, and a zero clears it at once.
func TestSilentDataPlaneLoadExpires(t *testing.T) {
	h, clk := newVirtualClockCP(t)
	const period = 10 * time.Millisecond

	h.call(t, proto.MethodScalingMetric, loadReport(1, period, "f", 5).Marshal())
	h.call(t, proto.MethodScalingMetric, loadReport(2, period, "f", 2).Marshal())
	if got := h.load(t, "f"); got != 7 {
		t.Fatalf("load = %v, want 7 (5 + 2)", got)
	}
	clk.Advance(2 * period)
	h.call(t, proto.MethodScalingMetric, loadReport(2, period, "f", 2).Marshal())
	clk.Advance(loadTTLPeriods*period - 2*period - time.Nanosecond)
	if got := h.load(t, "f"); got != 7 {
		t.Fatalf("load just before data plane 1's TTL = %v, want 7", got)
	}
	clk.Advance(time.Nanosecond)
	if got := h.load(t, "f"); got != 2 {
		t.Fatalf("load at data plane 1's TTL = %v, want 2 (data plane 1 went silent)", got)
	}
	h.call(t, proto.MethodScalingMetric, loadReport(2, period, "f", 0).Marshal())
	if got := h.load(t, "f"); got != 0 {
		t.Fatalf("load after data plane 2's zero = %v, want 0", got)
	}
}

// TestOneOffReportExpiresAfterCountingOnce: a report with Interval 0 is
// one autoscaler sample on arrival and is not held, so the sweeps after
// it read no load.
func TestOneOffReportExpiresAfterCountingOnce(t *testing.T) {
	h, clk := newVirtualClockCP(t)
	h.call(t, proto.MethodScalingMetric, loadReport(1, 0, "f", 4).Marshal())
	if got := h.load(t, "f"); got != 0 {
		t.Fatalf("held load after a one-off report = %v, want 0", got)
	}
	var desired int
	h.cp.withFunction("f", func(fs *functionState) {
		desired = fs.scaler.Desired(clk.Now(), 0)
	})
	if desired != 4 {
		t.Fatalf("desired after the one-off sample = %d, want 4", desired)
	}
	clk.Advance(10 * time.Millisecond)
	var mean float64
	h.cp.withFunction("f", func(fs *functionState) {
		mean = fs.load.sweep(clk.Now())
	})
	if mean != 0 {
		t.Fatalf("sweep mean after a one-off report = %v, want 0", mean)
	}
}

// TestSweepRecordsTimeWeightedMean: the sweep's sample is the load's mean
// since the previous sweep, each held value weighted by how long it was
// held.
func TestSweepRecordsTimeWeightedMean(t *testing.T) {
	h, clk := newVirtualClockCP(t)
	sweep := func() float64 {
		var mean float64
		h.cp.withFunction("f", func(fs *functionState) { mean = fs.load.sweep(clk.Now()) })
		return mean
	}
	sweep()
	h.call(t, proto.MethodScalingMetric, loadReport(1, time.Second, "f", 8).Marshal())
	clk.Advance(30 * time.Millisecond)
	h.call(t, proto.MethodScalingMetric, loadReport(1, time.Second, "f", 0).Marshal())
	clk.Advance(50 * time.Millisecond)
	if got := sweep(); math.Abs(got-3) > 1e-9 {
		t.Fatalf("mean = %v, want 3 (8 for 30 of 80 ms)", got)
	}
	clk.Advance(80 * time.Millisecond)
	if got := sweep(); got != 0 {
		t.Fatalf("mean of an idle interval = %v, want 0", got)
	}
}

// holdInvocations makes the fake worker hold every sandbox invocation
// until the returned release runs (test cleanup runs it too).
func (w *fakeWorker) holdInvocations(t *testing.T) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	w.mu.Lock()
	w.hold = gate
	w.mu.Unlock()
	t.Cleanup(release)
	return release
}

// TestScalingSumsAcrossDataPlanes: the front end steers a function to one
// data plane, so the others report nothing for it. Nine requests held in
// flight on data plane 1 of 3 must settle the function at nine
// sandboxes: the load is the sum over data planes, not their mean.
func TestScalingSumsAcrossDataPlanes(t *testing.T) {
	h := newCPHarness(t)
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	w := startFakeWorker(t, h.tr, "cp0", 1, "10.0.0.1:9000", true)
	w.heartbeat(t, 30*time.Millisecond)
	release := w.holdInvocations(t)
	fn := fnSpec("f")
	h.call(t, proto.MethodRegisterFunction, core.MarshalFunction(&fn))

	var dps []*dataplane.DataPlane
	for i := 1; i <= 3; i++ {
		dp := dataplane.New(dataplane.Config{
			ID:             core.DataPlaneID(i),
			Addr:           fmt.Sprintf("dp%d:8000", i),
			Transport:      h.tr,
			ControlPlanes:  []string{"cp0"},
			MetricInterval: 10 * time.Millisecond,
			QueueTimeout:   20 * time.Second,
		})
		if err := dp.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dp.Stop)
		dps = append(dps, dp)
	}

	const inFlight = 9
	var wg sync.WaitGroup
	t.Cleanup(wg.Wait) // after release (cleanups run last-in first-out)
	t.Cleanup(release)
	req := proto.InvokeRequest{Function: "f"}
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			_, _ = h.tr.Call(ctx, dps[0].Addr(), proto.MethodInvoke, req.Marshal())
		}()
	}

	// Settled: nine ready sandboxes, unchanged over 20 report periods.
	deadline := time.Now().Add(10 * time.Second)
	var stableSince time.Time
	for {
		ready, creating := h.cp.FunctionScale("f")
		if ready == inFlight && creating == 0 {
			if stableSince.IsZero() {
				stableSince = time.Now()
			} else if time.Since(stableSince) >= 200*time.Millisecond {
				break
			}
		} else {
			stableSince = time.Time{}
		}
		if time.Now().After(deadline) {
			t.Fatalf("function did not settle at %d sandboxes: ready=%d creating=%d", inFlight, ready, creating)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
