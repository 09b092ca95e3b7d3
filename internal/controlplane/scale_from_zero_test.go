package controlplane

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// newIdleSweepCP starts a single-replica control plane whose autoscale
// sweep never fires on its own, with one registered worker that accepts
// creations but never reports them ready.
func newIdleSweepCP(t *testing.T) (*cpHarness, *fakeWorker) {
	t.Helper()
	tr := transport.NewInProc()
	db := store.NewMemory()
	cp := New(Config{
		Addr:              "cp0",
		Transport:         tr,
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
	registerWorker(t, h, 1, "w1", "10.0.0.1")
	return h, startFakeWorker(t, tr, "cp0", 1, "10.0.0.1:9000", false)
}

func queuedReport(functions ...string) *proto.ScalingMetricReport {
	report := &proto.ScalingMetricReport{DataPlane: 1}
	for _, fn := range functions {
		report.Metrics = append(report.Metrics, core.ScalingMetric{Function: fn, QueueDepth: 1, At: time.Now()})
	}
	return report
}

// createsByFunction waits until the fake worker has received want
// creations, then counts them per function.
func createsByFunction(t *testing.T, w *fakeWorker, want int) map[string]int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		w.mu.Lock()
		n := len(w.created)
		w.mu.Unlock()
		if n >= want || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]int)
	for _, c := range w.created {
		out[c.Function.Name]++
	}
	return out
}

// TestScaleFromZeroOnMetricReport: a report showing queued invocations
// for a function with no sandbox creates one on arrival, with no
// autoscale sweep; a second report finds it creating and adds nothing.
func TestScaleFromZeroOnMetricReport(t *testing.T) {
	h, w := newIdleSweepCP(t)
	fn := fnSpec("f")
	h.call(t, proto.MethodRegisterFunction, core.MarshalFunction(&fn))

	h.call(t, proto.MethodScalingMetric, queuedReport("f").Marshal())
	if ready, creating := h.cp.FunctionScale("f"); ready+creating != 1 {
		t.Fatalf("after one report: ready=%d creating=%d, want one sandbox", ready, creating)
	}
	h.call(t, proto.MethodScalingMetric, queuedReport("f").Marshal())
	if ready, creating := h.cp.FunctionScale("f"); ready+creating != 1 {
		t.Fatalf("after a second report: ready=%d creating=%d, want one sandbox", ready, creating)
	}
	h.cp.Stop() // waits for the create RPCs in flight
	if got := createsByFunction(t, w, 1)["f"]; got != 1 {
		t.Fatalf("worker received %d creations, want 1", got)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.batchRPCs != 1 || w.singleRPCs != 0 {
		t.Errorf("create RPCs: %d batch, %d single; want the sweep's batched dispatch", w.batchRPCs, w.singleRPCs)
	}
	if n := h.cp.Metrics().Histogram("cold_start_sched_ms").Count(); n != 1 {
		t.Errorf("cold_start_sched_ms has %d samples, want 1", n)
	}
}

// TestScaleFromZeroRacesReconcile races the scale-from-zero path against
// autoscale sweeps over many functions with a demand of one sandbox
// each: whichever decides first reserves the sandbox, so every function
// ends with exactly one. Run under -race.
func TestScaleFromZeroRacesReconcile(t *testing.T) {
	h, w := newIdleSweepCP(t)
	const functions = 64
	names := make([]string, functions)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
		fn := fnSpec(names[i])
		h.call(t, proto.MethodRegisterFunction, core.MarshalFunction(&fn))
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		for round := 0; round < 3; round++ {
			for _, name := range names {
				if _, err := h.tr.Call(context.Background(), "cp0", proto.MethodScalingMetric, queuedReport(name).Marshal()); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				h.cp.Reconcile()
			}
		}
	}()
	wg.Wait()
	h.cp.Reconcile()

	for _, name := range names {
		if ready, creating := h.cp.FunctionScale(name); ready+creating != 1 {
			t.Errorf("%s: ready=%d creating=%d, want one sandbox", name, ready, creating)
		}
	}
	h.cp.Stop()
	creates := createsByFunction(t, w, functions)
	for _, name := range names {
		if creates[name] != 1 {
			t.Errorf("%s: worker received %d creations, want 1", name, creates[name])
		}
	}
}
