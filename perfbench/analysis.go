package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// window is a half-open span of schedule offsets.
type window struct{ lo, hi time.Duration }

func (w window) has(at time.Duration) bool { return at >= w.lo && at < w.hi }
func (w window) seconds() float64          { return (w.hi - w.lo).Seconds() }

func msOf(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
func usOf(ns int64) float64 { return float64(ns) / float64(time.Microsecond) }

// run bundles what the analyses read: the schedule, the client results
// and the function's execution log, all timed from one base instant.
type run struct {
	w         *workload
	res       []result
	log       *execLog
	loadStart time.Duration // base-relative instant the schedule starts
}

func (r *run) due(i int) int64 { return int64(r.loadStart + r.w.ops[i].at) }

// origin is the instant op i is timed from: its due time, or its send
// time if the generator issued it ahead of that (see lookahead).
func (r *run) origin(i int) int64 { return min(r.due(i), r.res[i].sent) }

// sched is the client-observed latency of sync op i timed from its
// origin, minus the time the function ran, in ns.
func (r *run) sched(i int) int64 {
	return r.res[i].done - r.origin(i) - int64(r.res[i].ran)
}

// clientStats is the end-to-end view of one window.
type clientStats struct {
	attempted, failed  int
	syncOK, cold       int
	good               int
	echoBad, asyncLost int
	asyncDup           int
	schedMs            []float64
	coldSchedMs        []float64
	warmSchedMs        []float64
	fnSchedMs          []float64 // per-function mean sched
	asyncSchedMs       []float64 // submit -> function start
	lateMs             []float64
}

func (r *run) clientStats(win window) clientStats {
	var st clientStats
	perFn := map[int32][]float64{}
	for i := range r.w.ops {
		o := &r.w.ops[i]
		if !win.has(o.at) {
			continue
		}
		res := &r.res[i]
		st.attempted++
		if !res.issued {
			st.failed++
			continue
		}
		st.lateMs = append(st.lateMs, msOf(res.sent-r.due(i)))
		if o.async {
			switch {
			case res.err:
				st.failed++
			case r.log.count(i) == 0:
				st.failed++
				st.asyncLost++
			default:
				if r.log.count(i) > 1 {
					st.asyncDup++
				}
				at, _ := r.log.started(i)
				st.asyncSchedMs = append(st.asyncSchedMs, msOf(int64(at)-r.origin(i)))
			}
			continue
		}
		if res.err || res.echoBad {
			st.failed++
			if res.echoBad {
				st.echoBad++
			}
			continue
		}
		st.syncOK++
		s := msOf(r.sched(i))
		st.schedMs = append(st.schedMs, s)
		perFn[o.fn] = append(perFn[o.fn], s)
		if res.cold {
			st.cold++
			st.coldSchedMs = append(st.coldSchedMs, s)
		} else {
			st.warmSchedMs = append(st.warmSchedMs, s)
		}
		if time.Duration(s*float64(time.Millisecond)) <= r.w.limit {
			st.good++
		}
	}
	for _, xs := range perFn {
		st.fnSchedMs = append(st.fnSchedMs, mean(xs))
	}
	return st
}

// Roles of traced components, from the names stack.go gives them.
type role uint8

const (
	roleOther role = iota
	roleLB
	roleCP
	roleDP
	roleWorker
)

func roleOf(node string) (role, int) {
	for _, p := range []struct {
		prefix string
		r      role
	}{{"lb", roleLB}, {"cp", roleCP}, {"dp", roleDP}, {"w", roleWorker}} {
		if rest, ok := strings.CutPrefix(node, p.prefix); ok {
			n, _ := strconv.Atoi(rest)
			return p.r, n
		}
	}
	return roleOther, 0
}

// invokeHops are the four spans of one invocation's warm path.
type invokeHops struct {
	lbCall, dpHandle, dpCall, wHandle *span
}

func (h *invokeHops) complete() bool {
	return h.lbCall != nil && h.dpHandle != nil && h.dpCall != nil && h.wHandle != nil
}

// joins indexes spans for the request-ID and function joins.
type joins struct {
	roles  []role
	ids    []int
	hops   []invokeHops     // by request ID
	metric map[mkey][]int64 // (data plane, queued function) -> CP handler starts
	create map[uint64]int64 // sandbox -> CP create call start
	ready  map[uint64]int64 // sandbox -> first worker readiness report start
	update map[ukey]int64   // (data plane node, function, sandbox) -> first DP handler start
	byRPC  map[rpc][]*span  // every span by kind
}

type mkey struct {
	dp uint16
	fn string
}

type ukey struct {
	node uint8
	fn   string
	sb   uint64
}

func buildJoins(spans []span, nodes []string, nOps int) *joins {
	j := &joins{
		hops:   make([]invokeHops, nOps),
		metric: map[mkey][]int64{},
		create: map[uint64]int64{},
		ready:  map[uint64]int64{},
		update: map[ukey]int64{},
		byRPC:  map[rpc][]*span{},
	}
	for _, n := range nodes {
		r, id := roleOf(n)
		j.roles = append(j.roles, r)
		j.ids = append(j.ids, id)
	}
	for i := range spans {
		sp := &spans[i]
		j.byRPC[sp.rpc] = append(j.byRPC[sp.rpc], sp)
		if sp.err {
			continue
		}
		r := j.roles[sp.node]
		if sp.hasID && sp.id < uint64(nOps) {
			h := &j.hops[sp.id]
			switch {
			case sp.rpc == rpcInvoke && sp.call && r == roleLB && h.lbCall == nil:
				h.lbCall = sp
			case sp.rpc == rpcInvoke && !sp.call && r == roleDP && h.dpHandle == nil:
				h.dpHandle = sp
			case sp.rpc == rpcInvokeSandbox && sp.call && r == roleDP && h.dpCall == nil:
				h.dpCall = sp
			case sp.rpc == rpcInvokeSandbox && !sp.call && r == roleWorker && h.wHandle == nil:
				h.wHandle = sp
			}
		}
		switch {
		case sp.rpc == rpcMetric && !sp.call && r == roleCP:
			for _, k := range sp.keys {
				mk := mkey{sp.dp, k.fn}
				j.metric[mk] = append(j.metric[mk], sp.start)
			}
		case sp.rpc == rpcCreate && sp.call && r == roleCP:
			for _, k := range sp.keys {
				if _, ok := j.create[k.sb]; !ok {
					j.create[k.sb] = sp.start
				}
			}
		case sp.rpc == rpcUpdate && !sp.call && r == roleDP:
			for _, k := range sp.keys {
				uk := ukey{sp.node, k.fn, k.sb}
				if _, ok := j.update[uk]; !ok {
					j.update[uk] = sp.start
				}
			}
		}
	}
	// A readiness report counts from its first attempt, failed or not:
	// that is when the worker told the control plane.
	for _, sp := range j.byRPC[rpcReady] {
		if !sp.call {
			continue
		}
		for _, k := range sp.keys {
			if _, ok := j.ready[k.sb]; !ok {
				j.ready[k.sb] = sp.start
			}
		}
	}
	return j
}

// firstAtOrAfter returns the first of the sorted times at or after t.
func firstAtOrAfter(ts []int64, t int64) (int64, bool) {
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= t })
	if i == len(ts) {
		return 0, false
	}
	return ts[i], true
}

// The hops of the two paths, in the order a request crosses them. Their
// per-request values sum to the request's sched exactly, so the sum of
// their means falls short of the client mean only by what the joins
// failed to cover.
var (
	coldHops = []string{
		"loadgen.late", "frontend.self", "transport.lb_dp", "controlplane.metric_wait",
		"controlplane.sweep_wait", "worker.create", "controlplane.fanout", "dataplane.dispatch",
		"transport.dp_worker", "worker.self", "dataplane.tail",
	}
	warmHops = []string{
		"loadgen.late", "frontend.self", "transport.lb_dp", "dataplane.warm_self",
		"transport.dp_worker", "worker.self",
	}
)

// breakdown is one path's per-hop samples (ms) over the requests whose
// spans joined completely.
type breakdown struct {
	hops   []string
	ms     [][]float64
	joined int
	tried  int
}

func newBreakdown(hops []string) *breakdown {
	return &breakdown{hops: hops, ms: make([][]float64, len(hops))}
}

func (b *breakdown) add(vals []int64) {
	for k, v := range vals {
		b.ms[k] = append(b.ms[k], msOf(v))
	}
	b.joined++
}

// sumOfMeans is the per-hop means added up, in ms.
func (b *breakdown) sumOfMeans() float64 {
	if b.joined == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, xs := range b.ms {
		s += mean(xs)
	}
	return s
}

func (b *breakdown) hop(name string) []float64 {
	for k, h := range b.hops {
		if h == name {
			return b.ms[k]
		}
	}
	return nil
}

// commonHops returns the client-side hop values every path shares:
// generator lateness, front-end self time and the LB -> DP transport.
func (r *run) commonHops(i int, h *invokeHops) (late, feSelf, lbDP int64) {
	res := &r.res[i]
	late = res.sent - r.origin(i)
	feSelf = (res.done - res.sent) - h.lbCall.dur()
	lbDP = h.lbCall.dur() - h.dpHandle.dur()
	return
}

// workerHops returns the DP -> worker transport and the worker's own
// time around the function.
func (r *run) workerHops(i int, h *invokeHops) (dpW, wSelf int64) {
	dpW = h.dpCall.dur() - h.wHandle.dur()
	wSelf = h.wHandle.dur() - int64(r.log.ran(i))
	return
}

// paths joins every sync request in win into the warm or the cold
// breakdown.
func (r *run) paths(j *joins, win window) (warm, cold *breakdown) {
	warm, cold = newBreakdown(warmHops), newBreakdown(coldHops)
	for i := range r.w.ops {
		o := &r.w.ops[i]
		res := &r.res[i]
		if o.async || !win.has(o.at) || !res.issued || res.err || res.echoBad {
			continue
		}
		h := &j.hops[i]
		if !res.cold {
			warm.tried++
			if !h.complete() {
				continue
			}
			late, fe, lbDP := r.commonHops(i, h)
			dpW, wSelf := r.workerHops(i, h)
			warm.add([]int64{late, fe, lbDP, h.dpHandle.dur() - h.dpCall.dur(), dpW, wSelf})
			continue
		}
		cold.tried++
		if !h.complete() || len(h.dpCall.keys) != 1 {
			continue
		}
		fn := r.w.functions[o.fn].Name
		sb := h.dpCall.keys[0].sb
		t2 := h.dpHandle.start
		t3, ok3 := firstAtOrAfter(j.metric[mkey{uint16(j.ids[h.dpHandle.node]), fn}], t2)
		t4, ok4 := j.create[sb]
		t5, ok5 := j.ready[sb]
		t6, ok6 := j.update[ukey{h.dpHandle.node, fn, sb}]
		t7 := h.dpCall.start
		if !(ok3 && ok4 && ok5 && ok6) || !(t2 <= t3 && t3 <= t4 && t4 <= t5 && t5 <= t6 && t6 <= t7) {
			continue
		}
		late, fe, lbDP := r.commonHops(i, h)
		dpW, wSelf := r.workerHops(i, h)
		cold.add([]int64{late, fe, lbDP, t3 - t2, t4 - t3, t5 - t4, t6 - t5, t7 - t6,
			dpW, wSelf, h.dpHandle.end - h.dpCall.end})
	}
	return warm, cold
}
