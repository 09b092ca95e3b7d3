package dataplane

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/transport"
)

// startGatedHost serves sandbox invocations that block until release is
// called, counting those in progress.
func startGatedHost(t *testing.T, tr *transport.InProc, addr string) (inFlight *atomic.Int32, release func()) {
	t.Helper()
	gate := make(chan struct{})
	inFlight = new(atomic.Int32)
	ln, err := tr.Listen(addr, func(method string, payload []byte) ([]byte, error) {
		if method != proto.MethodInvokeSandbox {
			return nil, fmt.Errorf("unexpected method %s", method)
		}
		inFlight.Add(1)
		defer inFlight.Add(-1)
		<-gate
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return inFlight, release
}

// lastReport returns the newest report cp received and how many it has.
func (cp *fakeCP) lastReport() (proto.ScalingMetricReport, int) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if len(cp.reports) == 0 {
		return proto.ScalingMetricReport{}, 0
	}
	return cp.reports[len(cp.reports)-1], len(cp.reports)
}

// wantReport checks that the report just sent is the n-th received and
// carries exactly one entry, for fn, with the given in-flight count.
func wantReport(t *testing.T, cp *fakeCP, n int, fn string, inFlight int) {
	t.Helper()
	rep, got := cp.lastReport()
	if got != n {
		t.Fatalf("control plane received %d reports, want %d", got, n)
	}
	if len(rep.Metrics) != 1 || rep.Metrics[0].Function != fn ||
		rep.Metrics[0].InFlight != inFlight || rep.Metrics[0].QueueDepth != 0 {
		t.Fatalf("report %d = %+v, want only %s with %d in flight", n, rep.Metrics, fn, inFlight)
	}
	if rep.Interval != time.Hour {
		t.Fatalf("report %d Interval = %v, want the metric period (1h)", n, rep.Interval)
	}
}

// busyFunctionDP starts a data plane with f and g registered and f served
// by a gated host. Its periodic report never fires and invocations of f
// are warm, so nothing wakes metricLoop: the test calls reportMetrics
// itself.
func busyFunctionDP(t *testing.T) (*fakeCP, *DataPlane, *transport.InProc, *atomic.Int32, func()) {
	t.Helper()
	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	inFlight, release := startGatedHost(t, tr, "w1:9000")
	dp := idleMetricsDP(t, tr)
	pushFunction(t, tr, dp.Addr(), "f", "g")
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")
	return cp, dp, tr, inFlight, release
}

// TestMetricReportCarriesOnlyBusyFunctions: a report omits idle
// functions, carries one zero when a function goes idle, and is not sent
// at all while every function is idle.
func TestMetricReportCarriesOnlyBusyFunctions(t *testing.T) {
	cp, dp, tr, inFlight, release := busyFunctionDP(t)

	dp.reportMetrics()
	if _, n := cp.lastReport(); n != 0 {
		t.Fatalf("an idle data plane sent %d reports, want none", n)
	}

	done := make(chan error, 1)
	go func() {
		_, err := invoke(tr, dp.Addr(), "f", nil)
		done <- err
	}()
	waitFor(t, "the invocation to reach the sandbox", func() bool { return inFlight.Load() == 1 })
	dp.reportMetrics()
	wantReport(t, cp, 1, "f", 1)
	dp.reportMetrics()
	wantReport(t, cp, 2, "f", 1)

	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	dp.reportMetrics()
	wantReport(t, cp, 3, "f", 0)
	dp.reportMetrics()
	if _, n := cp.lastReport(); n != 3 {
		t.Fatalf("control plane received %d reports, want 3: nothing once f's zero is delivered", n)
	}
	if got := dp.metrics.Counter("scale_from_zero_kicks").Value(); got != 0 {
		t.Fatalf("scale_from_zero_kicks = %d, want 0 (warm invocations only)", got)
	}
}

// TestMetricReportResendsUndeliveredZero: a zero the control plane never
// received goes out again with the next report.
func TestMetricReportResendsUndeliveredZero(t *testing.T) {
	cp, dp, tr, inFlight, release := busyFunctionDP(t)

	done := make(chan error, 1)
	go func() {
		_, err := invoke(tr, dp.Addr(), "f", nil)
		done <- err
	}()
	waitFor(t, "the invocation to reach the sandbox", func() bool { return inFlight.Load() == 1 })
	dp.reportMetrics()
	wantReport(t, cp, 1, "f", 1)
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	cp.mu.Lock()
	cp.dropReports = 1
	cp.mu.Unlock()
	dp.reportMetrics() // carries f's zero, and fails
	if _, n := cp.lastReport(); n != 1 {
		t.Fatalf("control plane received %d reports, want 1", n)
	}
	dp.reportMetrics()
	wantReport(t, cp, 2, "f", 0)
	dp.reportMetrics()
	if _, n := cp.lastReport(); n != 2 {
		t.Fatalf("control plane received %d reports, want 2: the zero is sent until delivered, then nothing", n)
	}
}
