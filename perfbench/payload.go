package main

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"time"
)

// The request payload the generator writes and the benchmark's function
// echoes: a magic tag, the request ID (the op's index in the schedule)
// and the requested execution time. The ID is what joins a client
// result to the spans of its hops and to the function's own record of
// having run.
const (
	payloadMagic = 0x64677062 // "dgpb"
	payloadLen   = 16
)

func encodePayload(id uint64, exec time.Duration) []byte {
	b := make([]byte, payloadLen)
	binary.LittleEndian.PutUint32(b[0:4], payloadMagic)
	binary.LittleEndian.PutUint64(b[4:12], id)
	binary.LittleEndian.PutUint32(b[12:16], uint32(exec/time.Microsecond))
	return b
}

func decodePayload(b []byte) (id uint64, exec time.Duration, ok bool) {
	if len(b) != payloadLen || binary.LittleEndian.Uint32(b[0:4]) != payloadMagic {
		return 0, 0, false
	}
	id = binary.LittleEndian.Uint64(b[4:12])
	exec = time.Duration(binary.LittleEndian.Uint32(b[12:16])) * time.Microsecond
	return id, exec, true
}

// execLog is the benchmark function's record of what it ran, indexed by
// request ID: when it first started, how often it ran (async is
// at-least-once, so duplicates are legal and counted) and how long its
// first run took.
type execLog struct {
	base    time.Time
	startNs []atomic.Int64 // first start, ns since base + 1 (0 = never ran)
	runNs   []atomic.Int64
	runs    []atomic.Int32
}

func newExecLog(n int, base time.Time) *execLog {
	return &execLog{
		base:    base,
		startNs: make([]atomic.Int64, n),
		runNs:   make([]atomic.Int64, n),
		runs:    make([]atomic.Int32, n),
	}
}

var errBadPayload = errors.New("benchmark function: payload without a request ID")

// serve is the function implementation registered for the benchmark's
// image on every worker: sleep the requested execution time, then echo
// the request ID so the client can check it got its own answer back,
// with the time the function actually ran in place of the requested
// one. Go's timers overshoot a 2 ms sleep by most of a millisecond, by
// an amount that depends on how busy the process is; the client
// subtracts the actual run time, so that error stays out of sched.
func (l *execLog) serve(p []byte) ([]byte, error) {
	start := time.Now()
	id, exec, ok := decodePayload(p)
	if !ok || id >= uint64(len(l.runs)) {
		return nil, errBadPayload
	}
	first := l.runs[id].Add(1) == 1
	if first {
		l.startNs[id].Store(int64(start.Sub(l.base)) + 1)
	}
	time.Sleep(exec)
	ran := time.Since(start)
	if first {
		l.runNs[id].Store(int64(ran))
	}
	return encodePayload(id, ran), nil
}

// started reports when request id first started running, relative to
// base, and whether it ran at all.
func (l *execLog) started(id int) (time.Duration, bool) {
	v := l.startNs[id].Load()
	return time.Duration(v - 1), v != 0
}

// ran reports how long request id's first run took inside the function.
func (l *execLog) ran(id int) time.Duration { return time.Duration(l.runNs[id].Load()) }

// count reports how many times request id ran.
func (l *execLog) count(id int) int { return int(l.runs[id].Load()) }
