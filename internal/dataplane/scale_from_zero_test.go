package dataplane

import (
	"sync"
	"testing"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/transport"
)

// idleMetricsDP starts a data plane whose periodic metric report never
// fires, so every report the fake control plane sees is a kick.
func idleMetricsDP(t *testing.T, tr *transport.InProc) *DataPlane {
	t.Helper()
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: time.Hour,
		QueueTimeout:   10 * time.Second,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Stop)
	return dp
}

// queuedReports returns the reports cp received that show fn queued.
func (cp *fakeCP) queuedReports(fn string) int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	n := 0
	for _, rep := range cp.reports {
		for _, m := range rep.Metrics {
			if m.Function == fn && m.QueueDepth > 0 {
				n++
			}
		}
	}
	return n
}

func (cp *fakeCP) reportCount() int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return len(cp.reports)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScaleFromZeroKickReportsColdQueue: a cold invocation of a function
// with no endpoint reports its queue to the control plane at once, not
// at the next periodic report; a warm hit reports nothing.
func TestScaleFromZeroKickReportsColdQueue(t *testing.T) {
	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	startSandboxHost(t, tr, "w1:9000", 0)
	dp := idleMetricsDP(t, tr)
	pushFunction(t, tr, dp.Addr(), "f")

	done := make(chan error, 1)
	go func() {
		_, err := invoke(tr, dp.Addr(), "f", []byte("cold"))
		done <- err
	}()
	waitFor(t, "a report showing f queued", func() bool { return cp.queuedReports("f") == 1 })
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	resp, err := invoke(tr, dp.Addr(), "f", []byte("warm"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ColdStart {
		t.Fatal("second invocation was cold")
	}
	if got := dp.metrics.Counter("scale_from_zero_kicks").Value(); got != 1 {
		t.Errorf("scale_from_zero_kicks = %d, want 1 (the warm hit must not kick)", got)
	}
	if got := cp.reportCount(); got != 1 {
		t.Errorf("control plane received %d reports, want 1", got)
	}
}

// TestScaleFromZeroConcurrentColdInvocationsShareOneKick: a burst of
// cold invocations of one function is announced by the one that starts
// the queue; the rest join it without another report.
func TestScaleFromZeroConcurrentColdInvocationsShareOneKick(t *testing.T) {
	tr := transport.NewInProc()
	cp := startFakeCP(t, tr, "cp")
	startSandboxHost(t, tr, "w1:9000", 0)
	dp := idleMetricsDP(t, tr)
	pushFunction(t, tr, dp.Addr(), "f")

	const burst = 16
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := invoke(tr, dp.Addr(), "f", nil); err != nil {
				errs <- err
			}
		}()
	}
	waitFor(t, "the whole burst to queue", func() bool { return dp.QueueDepth("f") == burst })
	waitFor(t, "a report showing f queued", func() bool { return cp.queuedReports("f") >= 1 })
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := dp.metrics.Counter("scale_from_zero_kicks").Value(); got != 1 {
		t.Errorf("scale_from_zero_kicks = %d, want 1", got)
	}
	if got := cp.reportCount(); got != 1 {
		t.Errorf("control plane received %d reports, want 1", got)
	}
}
