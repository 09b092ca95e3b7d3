// Package autoscaler implements per-function invocation-based autoscaling.
// Dirigent reuses Knative's default autoscaling policy for a fair
// comparison (paper §4): the desired sandbox count is proportional to the
// windowed average of in-flight requests, with a short "panic" window that
// reacts to bursts, a cap on the multiplicative scale-up rate, and
// scale-to-zero after a grace period.
package autoscaler

import (
	"math"
	"sync"
	"time"

	"dirigent/internal/core"
)

// sample is one concurrency observation.
type sample struct {
	at    time.Time
	value float64
}

// FunctionAutoscaler computes the desired sandbox count for one function
// from a stream of in-flight concurrency observations.
type FunctionAutoscaler struct {
	mu  sync.Mutex
	cfg core.ScalingConfig

	samples []sample // time-ordered window of observations

	panicMode    bool
	panicSince   time.Time
	maxPanicWant int

	lastPositive time.Time // last time concurrency was observed > 0
	everActive   bool
}

// New returns an autoscaler for one function.
func New(cfg core.ScalingConfig) *FunctionAutoscaler {
	if cfg.TargetConcurrency <= 0 {
		cfg.TargetConcurrency = 1
	}
	if cfg.StableWindow <= 0 {
		cfg.StableWindow = 60 * time.Second
	}
	if cfg.PanicWindow <= 0 {
		cfg.PanicWindow = cfg.StableWindow / 10
	}
	if cfg.PanicThreshold <= 0 {
		cfg.PanicThreshold = 2.0
	}
	if cfg.MaxScaleUpRate <= 1 {
		cfg.MaxScaleUpRate = 1000
	}
	return &FunctionAutoscaler{cfg: cfg}
}

// Config returns the function's scaling configuration.
func (a *FunctionAutoscaler) Config() core.ScalingConfig {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cfg
}

// Record adds one observation of total in-flight requests (executing plus
// queued) for the function.
func (a *FunctionAutoscaler) Record(at time.Time, inFlight float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.samples = append(a.samples, sample{at: at, value: inFlight})
	if inFlight > 0 {
		a.lastPositive = at
		a.everActive = true
	}
	a.gcLocked(at)
}

// gcLocked drops samples older than the stable window.
func (a *FunctionAutoscaler) gcLocked(now time.Time) {
	cutoff := now.Add(-a.cfg.StableWindow)
	i := 0
	for i < len(a.samples) && a.samples[i].at.Before(cutoff) {
		i++
	}
	if i > 0 {
		a.samples = append(a.samples[:0], a.samples[i:]...)
	}
}

// windowAverage computes the mean of samples within d before now.
func (a *FunctionAutoscaler) windowAverage(now time.Time, d time.Duration) float64 {
	cutoff := now.Add(-d)
	var sum float64
	var n int
	for i := len(a.samples) - 1; i >= 0; i-- {
		if a.samples[i].at.Before(cutoff) {
			break
		}
		sum += a.samples[i].value
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Desired returns the number of sandboxes the function should have,
// given the current ready count.
func (a *FunctionAutoscaler) Desired(now time.Time, current int) int {
	a.mu.Lock()
	defer a.mu.Unlock()

	stableAvg := a.windowAverage(now, a.cfg.StableWindow)
	panicAvg := a.windowAverage(now, a.cfg.PanicWindow)

	desiredStable := int(math.Ceil(stableAvg / a.cfg.TargetConcurrency))
	desiredPanic := int(math.Ceil(panicAvg / a.cfg.TargetConcurrency))

	// Panic-mode entry: the short window demands at least PanicThreshold×
	// the current capacity.
	threshold := a.cfg.PanicThreshold * math.Max(float64(current), 1)
	if float64(desiredPanic) >= threshold {
		if !a.panicMode {
			a.panicMode = true
			a.maxPanicWant = 0
		}
		a.panicSince = now
	} else if a.panicMode && now.Sub(a.panicSince) >= a.cfg.StableWindow {
		// Exit panic only after a full stable window without bursts.
		a.panicMode = false
		a.maxPanicWant = 0
	}

	desired := desiredStable
	if a.panicMode {
		// In panic mode, never scale down: hold the high-water mark.
		if desiredPanic > a.maxPanicWant {
			a.maxPanicWant = desiredPanic
		}
		if a.maxPanicWant > desired {
			desired = a.maxPanicWant
		}
	}

	// Rate-limit multiplicative scale-up.
	ceilUp := int(math.Ceil(math.Max(float64(current), 1) * a.cfg.MaxScaleUpRate))
	if desired > ceilUp {
		desired = ceilUp
	}

	// Scale to zero only after the grace period with no activity.
	if desired == 0 {
		if !a.everActive {
			// Never invoked: stay at zero (modulo MinScale below).
		} else if now.Sub(a.lastPositive) < a.cfg.ScaleToZeroGrace {
			desired = 1
		}
	}

	if desired < a.cfg.MinScale {
		desired = a.cfg.MinScale
	}
	if a.cfg.MaxScale > 0 && desired > a.cfg.MaxScale {
		desired = a.cfg.MaxScale
	}
	return desired
}

// InPanic reports whether the autoscaler is currently in panic mode.
func (a *FunctionAutoscaler) InPanic() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.panicMode
}
