package controlplane

import (
	"time"

	"dirigent/internal/core"
)

// loadTTLPeriods is how many report periods the control plane holds a data
// plane's last reported value for a function. A busy function is
// re-reported every period, so the value only lapses when its data plane
// has missed several reports in a row: it died, was partitioned off,
// restarted, or now reports to another leader.
const loadTTLPeriods = 3

// functionLoad is one function's concurrency (in-flight plus queued
// invocations) as the data planes report it. Each data plane reports only
// its busy functions, so the function's load is the sum of the values the
// data planes last reported for it, each held until that data plane
// refreshes it or its TTL passes. The load is integrated over time, and
// the autoscale sweep records its mean since the previous sweep as the
// function's one autoscaler sample per sweep. It is guarded by the lock
// of the function's shard.
type functionLoad struct {
	held []heldLoad
	// area is the integral of the load (in concurrency × seconds) from
	// sweepAt to at.
	area    float64
	at      time.Time
	sweepAt time.Time
}

// heldLoad is one data plane's last reported value for the function.
type heldLoad struct {
	dp      core.DataPlaneID
	value   float64
	expires time.Time
}

// advance integrates the held values up to now, each only until its
// expiry, and drops the expired ones.
func (l *functionLoad) advance(now time.Time) {
	kept := l.held[:0]
	for _, h := range l.held {
		end := now
		if h.expires.Before(end) {
			end = h.expires
		}
		if end.After(l.at) {
			l.area += h.value * end.Sub(l.at).Seconds()
		}
		if h.expires.After(now) {
			kept = append(kept, h)
		}
	}
	l.held = kept
	if now.After(l.at) {
		l.at = now
	}
}

// sum is the current load: the sum of the unexpired held values. Callers
// advance first.
func (l *functionLoad) sum() float64 {
	var s float64
	for _, h := range l.held {
		s += h.value
	}
	return s
}

// report replaces one data plane's value with value, held for ttl, and
// returns the function's load at now. A zero ttl marks a one-off value:
// it counts in the returned load but is not held.
func (l *functionLoad) report(dp core.DataPlaneID, value float64, ttl time.Duration, now time.Time) float64 {
	l.advance(now)
	for i := range l.held {
		if l.held[i].dp == dp {
			l.held = append(l.held[:i], l.held[i+1:]...)
			break
		}
	}
	if ttl == 0 {
		return l.sum() + value
	}
	if value > 0 {
		l.held = append(l.held, heldLoad{dp: dp, value: value, expires: now.Add(ttl)})
	}
	return l.sum()
}

// sweep returns the mean load since the previous sweep and starts the
// next interval. The first sweep, or one at the same instant as the
// previous, reads the current load.
func (l *functionLoad) sweep(now time.Time) float64 {
	l.advance(now)
	mean := l.sum()
	if elapsed := now.Sub(l.sweepAt); !l.sweepAt.IsZero() && elapsed > 0 {
		mean = l.area / elapsed.Seconds()
	}
	l.area = 0
	l.sweepAt = now
	return mean
}
