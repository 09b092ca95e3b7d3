package autoscaler

import (
	"testing"
	"testing/quick"
	"time"

	"dirigent/internal/core"
)

func cfg() core.ScalingConfig {
	c := core.DefaultScalingConfig()
	c.StableWindow = 60 * time.Second
	c.PanicWindow = 6 * time.Second
	c.ScaleToZeroGrace = 30 * time.Second
	return c
}

var t0 = time.Unix(10_000, 0)

func TestDesiredZeroWhenNeverInvoked(t *testing.T) {
	a := New(cfg())
	if got := a.Desired(t0, 0); got != 0 {
		t.Errorf("Desired with no activity = %d, want 0", got)
	}
}

func TestDesiredTracksConcurrency(t *testing.T) {
	a := New(cfg())
	// Steady 5 in-flight with target concurrency 1 → 5 sandboxes.
	for i := 0; i < 30; i++ {
		a.Record(t0.Add(time.Duration(i)*time.Second), 5)
	}
	now := t0.Add(30 * time.Second)
	if got := a.Desired(now, 5); got != 5 {
		t.Errorf("Desired = %d, want 5", got)
	}
}

func TestTargetConcurrencyDivides(t *testing.T) {
	c := cfg()
	c.TargetConcurrency = 10
	a := New(c)
	for i := 0; i < 30; i++ {
		a.Record(t0.Add(time.Duration(i)*time.Second), 25)
	}
	if got := a.Desired(t0.Add(30*time.Second), 3); got != 3 {
		t.Errorf("Desired = %d, want ceil(25/10)=3", got)
	}
}

func TestPanicModeOnBurst(t *testing.T) {
	a := New(cfg())
	// Quiet history, then a sudden burst of 40 in-flight.
	for i := 0; i < 54; i++ {
		a.Record(t0.Add(time.Duration(i)*time.Second), 0)
	}
	burstAt := t0.Add(55 * time.Second)
	a.Record(burstAt, 40)
	a.Record(burstAt.Add(time.Second), 40)
	now := burstAt.Add(2 * time.Second)
	got := a.Desired(now, 1)
	if !a.InPanic() {
		t.Errorf("burst did not trigger panic mode")
	}
	// The panic-window average (burst samples diluted by the quiet
	// samples still inside the 6 s window) dominates the stable average.
	if got < 10 {
		t.Errorf("Desired during burst = %d, want >= 10", got)
	}
}

func TestPanicModeHoldsHighWaterMark(t *testing.T) {
	a := New(cfg())
	burstAt := t0
	a.Record(burstAt, 40)
	a.Record(burstAt.Add(time.Second), 40)
	high := a.Desired(burstAt.Add(time.Second), 1)
	// Burst subsides, but within the stable window panic mode must not
	// scale down.
	a.Record(burstAt.Add(2*time.Second), 2)
	later := a.Desired(burstAt.Add(3*time.Second), high)
	if later < high {
		t.Errorf("panic mode scaled down from %d to %d", high, later)
	}
}

func TestScaleToZeroAfterGrace(t *testing.T) {
	c := cfg()
	c.StableWindow = 10 * time.Second
	c.ScaleToZeroGrace = 5 * time.Second
	a := New(c)
	a.Record(t0, 1)
	// Just after activity: keep one sandbox.
	a.Record(t0.Add(time.Second), 0)
	if got := a.Desired(t0.Add(2*time.Second), 1); got != 1 {
		t.Errorf("Desired right after activity = %d, want 1", got)
	}
	// After the grace period with the window drained: zero.
	for i := 3; i < 20; i++ {
		a.Record(t0.Add(time.Duration(i)*time.Second), 0)
	}
	if got := a.Desired(t0.Add(20*time.Second), 1); got != 0 {
		t.Errorf("Desired after grace = %d, want 0", got)
	}
}

func TestMinMaxScaleClamp(t *testing.T) {
	c := cfg()
	c.MinScale = 2
	c.MaxScale = 4
	a := New(c)
	if got := a.Desired(t0, 0); got != 2 {
		t.Errorf("MinScale not enforced: %d", got)
	}
	for i := 0; i < 10; i++ {
		a.Record(t0.Add(time.Duration(i)*time.Second), 100)
	}
	if got := a.Desired(t0.Add(10*time.Second), 4); got != 4 {
		t.Errorf("MaxScale not enforced: %d", got)
	}
}

func TestMaxScaleUpRateLimitsGrowth(t *testing.T) {
	c := cfg()
	c.MaxScaleUpRate = 2 // at most double per decision
	a := New(c)
	for i := 0; i < 10; i++ {
		a.Record(t0.Add(time.Duration(i)*100*time.Millisecond), 64)
	}
	if got := a.Desired(t0.Add(time.Second), 4); got > 8 {
		t.Errorf("Desired = %d, exceeds 2x rate limit from current 4", got)
	}
}

// TestQuickDesiredBounds property-tests the autoscaler's output range:
// never negative, never above MaxScale, never below MinScale.
func TestQuickDesiredBounds(t *testing.T) {
	f := func(loads []uint16, current uint8, minScale, maxScale uint8) bool {
		c := cfg()
		c.MinScale = int(minScale % 16)
		c.MaxScale = c.MinScale + int(maxScale%16) + 1
		a := New(c)
		for i, l := range loads {
			a.Record(t0.Add(time.Duration(i)*time.Second), float64(l%2048))
		}
		got := a.Desired(t0.Add(time.Duration(len(loads))*time.Second), int(current))
		return got >= c.MinScale && got <= c.MaxScale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWindowGC(t *testing.T) {
	c := cfg()
	c.StableWindow = 5 * time.Second
	a := New(c)
	for i := 0; i < 1000; i++ {
		a.Record(t0.Add(time.Duration(i)*time.Second), 1)
	}
	a.mu.Lock()
	n := len(a.samples)
	a.mu.Unlock()
	if n > 10 {
		t.Errorf("window kept %d samples; GC not working", n)
	}
}

func TestDefaultsApplied(t *testing.T) {
	a := New(core.ScalingConfig{})
	got := a.Config()
	if got.TargetConcurrency != 1 || got.StableWindow != 60*time.Second ||
		got.PanicThreshold != 2.0 || got.MaxScaleUpRate != 1000 {
		t.Errorf("defaults not applied: %+v", got)
	}
}

// TestPanicEntryExactThreshold pins the panic-entry comparison at the
// exact boundary: desiredPanic >= PanicThreshold × current enters panic;
// one below does not.
func TestPanicEntryExactThreshold(t *testing.T) {
	// PanicThreshold 2.0, current 2 → threshold is exactly 4.
	enter := New(cfg())
	enter.Record(t0, 4) // panic-window average exactly 4
	enter.Desired(t0, 2)
	if !enter.InPanic() {
		t.Errorf("desiredPanic == threshold must enter panic mode")
	}

	stay := New(cfg())
	stay.Record(t0, 3) // desiredPanic 3 < threshold 4
	stay.Desired(t0, 2)
	if stay.InPanic() {
		t.Errorf("desiredPanic below threshold must not enter panic mode")
	}
}

// TestPanicExitExactStableWindow pins panic exit at the exact window
// boundary: one nanosecond before a full quiet StableWindow the scaler
// still panics; at exactly the window it exits.
func TestPanicExitExactStableWindow(t *testing.T) {
	c := cfg() // StableWindow 60s
	a := New(c)
	a.Record(t0, 40)
	if a.Desired(t0, 1); !a.InPanic() {
		t.Fatalf("burst did not enter panic mode")
	}
	// No further bursts: the panic window drains, so panicSince stays t0.
	a.Desired(t0.Add(c.StableWindow-time.Nanosecond), 1)
	if !a.InPanic() {
		t.Errorf("exited panic %v early", time.Nanosecond)
	}
	a.Desired(t0.Add(c.StableWindow), 1)
	if a.InPanic() {
		t.Errorf("still in panic after a full quiet stable window")
	}
}

// TestWindowGCClockSkew injects backwards clock skew into the sample
// stream: out-of-order samples must neither break GC (stale samples
// stuck forever) nor corrupt the desired-scale computation.
func TestWindowGCClockSkew(t *testing.T) {
	c := cfg()
	c.StableWindow = 60 * time.Second
	a := New(c)
	a.Record(t0.Add(100*time.Second), 5)
	// Clock skews 50 s backwards; the sample lands out of order.
	a.Record(t0.Add(50*time.Second), 3)
	a.Record(t0.Add(55*time.Second), 3)
	// Desired stays sane (bounded, non-negative) on the skewed window.
	if got := a.Desired(t0.Add(100*time.Second), 1); got < 0 || got > 10 {
		t.Errorf("Desired on skewed window = %d", got)
	}
	// Time recovers and moves past the window: every skewed sample must
	// be collected even though the stream was not time-ordered.
	a.Record(t0.Add(170*time.Second), 1)
	a.mu.Lock()
	n := len(a.samples)
	a.mu.Unlock()
	if n != 1 {
		t.Errorf("GC kept %d samples after skewed stream aged out, want 1", n)
	}
}

// TestScaleToZeroGraceExactBoundary pins the grace comparison: one
// nanosecond inside the grace period holds the last sandbox; at exactly
// the grace period the function scales to zero.
func TestScaleToZeroGraceExactBoundary(t *testing.T) {
	c := cfg()
	c.StableWindow = 5 * time.Second
	c.ScaleToZeroGrace = 30 * time.Second
	a := New(c)
	a.Record(t0, 1) // lastPositive = t0
	// Drain the stable window with zeros so desiredStable is 0.
	for i := 1; i <= 29; i++ {
		a.Record(t0.Add(time.Duration(i)*time.Second), 0)
	}
	if got := a.Desired(t0.Add(c.ScaleToZeroGrace-time.Nanosecond), 1); got != 1 {
		t.Errorf("Desired inside grace = %d, want 1", got)
	}
	if got := a.Desired(t0.Add(c.ScaleToZeroGrace), 1); got != 0 {
		t.Errorf("Desired at exact grace boundary = %d, want 0", got)
	}
}
