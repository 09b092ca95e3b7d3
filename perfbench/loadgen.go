package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dirigent/internal/frontend"
	"dirigent/internal/proto"
)

// result is the client's view of one op. Times are ns since the run's
// base instant.
type result struct {
	sent, done int64
	issued     bool
	err        bool // failed or refused
	echoBad    bool // the body did not carry the op's own request ID
	cold       bool
	ran        time.Duration // how long the function ran, as it reported
}

// clock is the time source the generator schedules against; tests
// substitute a fake one.
type clock interface {
	now() time.Duration // since the run's base instant
	sleep(time.Duration)
}

type wallClock struct{ base time.Time }

func (c wallClock) now() time.Duration    { return time.Since(c.base) }
func (c wallClock) sleep(d time.Duration) { time.Sleep(d) }

// lookahead is how far ahead of an op's due time the generator may
// issue it. Go's timers wake an idle process with millisecond
// granularity, so a generator that slept until each due time would run
// up to a millisecond late on every sub-millisecond gap (at 2000/s,
// most gaps), and that lateness, which depends on how idle the process
// is, would make up half of the warm path's sched. Instead the
// generator sleeps until a millisecond before the next due time and
// issues every op due by then; an op is timed from the earlier of its
// due and send times, so a generator stalled past a due time still
// counts against the system.
const lookahead = time.Millisecond

// drive is the open-loop generator: it issues each op at most lookahead
// before start+op.at, regardless of how many earlier ops are still in
// flight, calling fire(i, sent) on its own goroutine. It returns once
// every op has been issued; wg tracks the fired goroutines.
func drive(clk clock, start time.Duration, ops []op, wg *sync.WaitGroup, fire func(i int, sent time.Duration)) {
	for i := range ops {
		due := start + ops[i].at
		if d := due - clk.now(); d > lookahead {
			clk.sleep(d - lookahead)
		}
		sent := clk.now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fire(i, sent)
		}(i)
	}
}

// invoker sends ops through the front end and records results.
type invoker struct {
	lb      *frontend.LB
	w       *workload
	base    time.Time
	res     []result
	timeout time.Duration

	errMu  sync.Mutex
	errors []string // the first few failures, for the report
}

const keptErrors = 5

func (v *invoker) noteError(i int, err error) {
	v.errMu.Lock()
	defer v.errMu.Unlock()
	if len(v.errors) < keptErrors {
		v.errors = append(v.errors, fmt.Sprintf("op %d (%s, async=%v): %v", i, v.w.functions[v.w.ops[i].fn].Name, v.w.ops[i].async, err))
	}
}

func (v *invoker) fire(i int, sent time.Duration) {
	o := &v.w.ops[i]
	r := &v.res[i]
	r.issued = true
	r.sent = int64(sent)
	ctx, cancel := context.WithTimeout(context.Background(), v.timeout)
	defer cancel()
	resp, err := v.lb.Invoke(ctx, &proto.InvokeRequest{
		Function: v.w.functions[o.fn].Name,
		Async:    o.async,
		Payload:  encodePayload(uint64(i), o.exec),
	})
	r.done = int64(time.Since(v.base))
	if err != nil {
		r.err = true
		v.noteError(i, err)
		return
	}
	if o.async {
		return
	}
	r.cold = resp.ColdStart
	id, ran, ok := decodePayload(resp.Body)
	if !ok || id != uint64(i) {
		r.echoBad = true
	}
	r.ran = ran
}
