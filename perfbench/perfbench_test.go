package main

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"dirigent/internal/proto"
	"dirigent/internal/transport"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN, not a measured value")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	b := encodePayload(123456789, 2500*time.Microsecond)
	id, exec, ok := decodePayload(b)
	if !ok || id != 123456789 || exec != 2500*time.Microsecond {
		t.Fatalf("decode = %d %v %v", id, exec, ok)
	}
	if _, _, ok := decodePayload(b[:10]); ok {
		t.Error("truncated payload decoded")
	}
	bad := append([]byte(nil), b...)
	bad[0] ^= 0xff
	if _, _, ok := decodePayload(bad); ok {
		t.Error("payload without the magic decoded")
	}
}

func TestExecLogEchoesAndCountsRuns(t *testing.T) {
	l := newExecLog(4, time.Now())
	p := encodePayload(2, 0)
	for i := 0; i < 2; i++ {
		out, err := l.serve(p)
		if id, _, ok := decodePayload(out); err != nil || !ok || id != 2 {
			t.Fatalf("serve = %v, %v; want request ID 2 echoed", out, err)
		}
	}
	if l.count(2) != 2 || l.count(1) != 0 {
		t.Errorf("counts = %d, %d; want 2, 0", l.count(2), l.count(1))
	}
	if _, ran := l.started(2); !ran {
		t.Error("start of a run not recorded")
	}
	if _, err := l.serve(encodePayload(9, 0)); err == nil {
		t.Error("request ID outside the schedule accepted")
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7, 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 7, 3*time.Second)
		c, _ := buildWorkload(name, 8, 3*time.Second)
		if len(a.ops) == 0 {
			t.Fatalf("%s: empty schedule", name)
		}
		if !reflect.DeepEqual(a.ops, b.ops) || !reflect.DeepEqual(a.functions, b.functions) {
			t.Errorf("%s: same seed gave different inputs", name)
		}
		if reflect.DeepEqual(a.ops, c.ops) {
			t.Errorf("%s: different seeds gave the same schedule", name)
		}
		if len(a.ops) != len(c.ops) {
			t.Errorf("%s: %d ops with one seed, %d with another; the offered load must not depend on the seed", name, len(a.ops), len(c.ops))
		}
		for i := 1; i < len(a.ops); i++ {
			if a.ops[i].at < a.ops[i-1].at || a.ops[i].at >= 3*time.Second {
				t.Fatalf("%s: op %d out of order or past the end", name, i)
			}
		}
	}
}

func TestColdChurnRevisitsEveryFunctionInRoundRobin(t *testing.T) {
	w, _ := buildWorkload("cold-churn", 1, 20*time.Second)
	n := len(w.functions)
	for i := n; i < len(w.ops); i++ {
		if w.ops[i].fn != w.ops[i-n].fn {
			t.Fatalf("op %d visits function %d, want %d", i, w.ops[i].fn, w.ops[i-n].fn)
		}
	}
}

// fakeClock advances only when the generator sleeps, plus a fixed
// oversleep that the lateness accounting must report.
type fakeClock struct {
	mu        sync.Mutex
	t         time.Duration
	oversleep time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleep(d time.Duration) {
	c.mu.Lock()
	c.t += d + c.oversleep
	c.mu.Unlock()
}

func TestLatenessAccounting(t *testing.T) {
	ms := time.Millisecond
	ops := []op{{at: 0}, {at: 500 * time.Microsecond}, {at: 10 * ms}, {at: 10 * ms}, {at: 30 * ms}}
	clk := &fakeClock{t: 5 * ms, oversleep: 2 * ms}
	start := 5 * ms
	res := make([]result, len(ops))
	var wg sync.WaitGroup
	drive(clk, start, ops, &wg, func(i int, sent time.Duration) {
		res[i].issued, res[i].sent = true, int64(sent)
	})
	wg.Wait()
	// Op 0 is due now. Op 1 is due within the lookahead and goes out at
	// once, half a millisecond early. Op 2 follows a sleep to a
	// millisecond before its due time that overshoots by 2 ms, so it
	// and op 3, due at the same time, go out 1 ms late; op 4 likewise.
	r := &run{w: &workload{functions: makeFunctions("ws", 1, 1, 1), ops: ops}, res: res, log: newExecLog(len(ops), time.Now()), loadStart: start}
	got := r.clientStats(window{0, time.Second}).lateMs
	want := []float64{0, -0.5, 1, 1, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lateness = %v, want %v", got, want)
	}
	if got := r.clientStats(window{10 * ms, 20 * ms}).lateMs; len(got) != 2 {
		t.Errorf("window kept %d ops, want 2", len(got))
	}
	// An early op is timed from its send, a late one from its due time.
	if got, want := r.origin(1), res[1].sent; got != want {
		t.Errorf("early op timed from %v, want its send %v", got, want)
	}
	if got, want := r.origin(2), int64(15*ms); got != want {
		t.Errorf("late op timed from %v, want its due time %v", got, want)
	}
}

// coldFixture builds the spans of one cold invocation (request 0 of
// function cc-000, homed on dp2) and one warm invocation (request 1).
func coldFixture() ([]string, []span, *run) {
	nodes := []string{"lb", "dp1", "dp2", "cp1", "w1"}
	const lb, dp2, cp1, w1 = 0, 2, 3, 4
	ms := func(v float64) int64 { return int64(v * float64(time.Millisecond)) }
	w := &workload{
		functions: makeFunctions("cc", 1, 0, 0),
		ops:       []op{{at: 0, fn: 0, exec: 2 * time.Millisecond}, {at: 200 * time.Millisecond, fn: 0, exec: 2 * time.Millisecond}},
		limit:     time.Second,
	}
	spans := []span{
		// Cold request 0: sent at 1 ms, answered at 100 ms.
		{start: ms(1.1), end: ms(99.9), node: lb, call: true, rpc: rpcInvoke, id: 0, hasID: true},
		{start: ms(1.3), end: ms(99.7), node: dp2, rpc: rpcInvoke, id: 0, hasID: true},
		// A metric report from another data plane must not join.
		{start: ms(5), end: ms(5.5), node: cp1, rpc: rpcMetric, dp: 1, keys: []key{{fn: "cc-000"}}},
		{start: ms(10), end: ms(10.5), node: cp1, rpc: rpcMetric, dp: 2, keys: []key{{fn: "cc-000"}}},
		{start: ms(60), end: ms(61), node: cp1, call: true, rpc: rpcCreate, keys: []key{{"cc-000", 42}}},
		{start: ms(80), end: ms(81), node: w1, call: true, rpc: rpcReady, keys: []key{{"cc-000", 42}}},
		{start: ms(82), end: ms(83), node: dp2, rpc: rpcUpdate, keys: []key{{"cc-000", 42}}},
		{start: ms(84), end: ms(99.5), node: dp2, call: true, rpc: rpcInvokeSandbox, id: 0, hasID: true, keys: []key{{sb: 42}}},
		{start: ms(84.2), end: ms(99.3), node: w1, rpc: rpcInvokeSandbox, id: 0, hasID: true, keys: []key{{sb: 42}}},
		// Warm request 1: sent at 201 ms, answered at 205 ms.
		{start: ms(201.1), end: ms(204.9), node: lb, call: true, rpc: rpcInvoke, id: 1, hasID: true},
		{start: ms(201.3), end: ms(204.7), node: dp2, rpc: rpcInvoke, id: 1, hasID: true},
		{start: ms(201.5), end: ms(204.5), node: dp2, call: true, rpc: rpcInvokeSandbox, id: 1, hasID: true, keys: []key{{sb: 42}}},
		{start: ms(201.7), end: ms(204.3), node: w1, rpc: rpcInvokeSandbox, id: 1, hasID: true, keys: []key{{sb: 42}}},
	}
	base := time.Now()
	r := &run{w: w, res: []result{
		{issued: true, sent: ms(1), done: ms(100), cold: true, ran: 14900 * time.Microsecond},
		{issued: true, sent: ms(201), done: ms(205), ran: 2400 * time.Microsecond},
	}, log: newExecLog(2, base)}
	r.log.runs[0].Store(1)
	r.log.runNs[0].Store(ms(14.9))
	r.log.runs[1].Store(1)
	r.log.runNs[1].Store(ms(2.4))
	return nodes, spans, r
}

func TestJoinsByRequestIDAndFunction(t *testing.T) {
	nodes, spans, r := coldFixture()
	j := buildJoins(spans, nodes, len(r.w.ops))
	for id := range r.w.ops {
		if !j.hops[id].complete() {
			t.Fatalf("request %d: invoke hops not joined: %+v", id, j.hops[id])
		}
	}
	if j.hops[1].dpCall.start != spans[11].start {
		t.Error("request 1 joined to the wrong DP -> worker span")
	}
	warm, cold := r.paths(j, window{0, time.Second})
	if cold.joined != 1 || warm.joined != 1 {
		t.Fatalf("joined cold %d warm %d, want 1 and 1", cold.joined, warm.joined)
	}
	want := map[string]float64{
		"controlplane.metric_wait": 8.7, // DP receive 1.3 -> dp2's report at 10
		"controlplane.sweep_wait":  50,  // -> create call at 60
		"worker.create":            20,  // -> readiness report at 80
		"controlplane.fanout":      2,   // -> endpoint update at dp2 at 82
		"dataplane.dispatch":       2,   // -> sandbox invoke at 84
	}
	for hop, ms := range want {
		if got := cold.hop(hop); len(got) != 1 || math.Abs(got[0]-ms) > 1e-9 {
			t.Errorf("%s = %v, want %v", hop, got, ms)
		}
	}
	// Per-request hops telescope: their sum is the client's sched, the
	// latency from the due time less the function's own run time.
	if got, want := cold.sumOfMeans(), 100-14.9; math.Abs(got-want) > 1e-9 {
		t.Errorf("cold hops sum to %v ms, want %v", got, want)
	}
	if got, want := warm.sumOfMeans(), 5-2.4; math.Abs(got-want) > 1e-9 {
		t.Errorf("warm hops sum to %v ms, want %v", got, want)
	}
}

func TestColdJoinRejectsOutOfOrderChain(t *testing.T) {
	nodes, spans, r := coldFixture()
	spans[5].start = int64(59 * time.Millisecond) // readiness before the create
	j := buildJoins(spans, nodes, len(r.w.ops))
	if _, cold := r.paths(j, window{0, time.Second}); cold.joined != 0 || cold.tried != 1 {
		t.Errorf("joined %d of %d, want 0 of 1", cold.joined, cold.tried)
	}
}

func TestCoverageCheckNeedsMostRequestsJoined(t *testing.T) {
	b := newBreakdown([]string{"a", "b"})
	b.tried = 10
	for i := 0; i < 9; i++ {
		b.add([]int64{int64(time.Millisecond), int64(time.Millisecond)})
	}
	client := []float64{2, 2, 2}
	if c := coverageCheck("warm", b, client); !c.ok {
		t.Errorf("9 of 10 joined, hops sum to the client mean: %s", c.detail)
	}
	if c := coverageCheck("warm", b, []float64{3}); c.ok {
		t.Errorf("hops cover 2/3 of the client mean but the check passed: %s", c.detail)
	}
	b.tried = 11
	if c := coverageCheck("warm", b, client); c.ok {
		t.Errorf("9 of 11 joined but the check passed: %s", c.detail)
	}
}

func TestLayerMetricsFlagsMissingSamples(t *testing.T) {
	w, _ := buildWorkload("cold-churn", 1, time.Second)
	vals := map[string]float64{}
	for _, d := range append(append([]metricDef(nil), clientDefs...), perLayerDefs...) {
		vals[d.name] = 1
	}
	vals["dataplane.warm_self_p50_us"] = math.NaN() // not loaded by cold-churn
	vals["dataplane.async_accept_p50_ms"] = math.NaN()
	delete(vals, "worker.create_p50_ms")
	metrics, missing := layerMetrics(w, vals)
	if len(metrics) != len(clientDefs)+len(perLayerDefs) {
		t.Errorf("%d metrics, want every per-layer metric", len(metrics))
	}
	if want := []string{"dataplane.async_accept_p50_ms", "worker.create_p50_ms"}; !reflect.DeepEqual(missing, want) {
		t.Errorf("missing = %v, want %v", missing, want)
	}
	if v := metrics["dataplane.warm_self_p50_us"].Value; v != 0 {
		t.Errorf("unloaded metric = %v, want 0", v)
	}
}

func TestQuietestPartsBySteal(t *testing.T) {
	steal := []float64{0.09, 0.01, math.NaN(), 0.05, 0.01, 0.2}
	count := []int{10, 10, 10, 10, 10, 10}
	if got, want := quietest(steal, count, 0.02, 3, 30), []int{1, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("quietest = %v, want %v", got, want)
	}
	if got, want := quietest(steal, count, 0.06, 3, 30), []int{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("quietest up to 6%% steal = %v, want %v", got, want)
	}
	if got, want := quietest(steal, count, 0.005, 2, 20), []int{1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("two quietest = %v, want %v", got, want)
	}
	if got, want := quietest(steal, count, 0.005, 4, 20), []int{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("four quietest = %v, want %v", got, want)
	}
	if got, want := quietest(steal, []int{5, 5, 5, 5, 5, 5}, 0.005, 2, 20), []int{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("quietest holding 20 samples = %v, want %v", got, want)
	}
	if got := quietest(steal, count, 0, 1, 1000); len(got) != len(steal) {
		t.Errorf("too few samples anywhere should select every part, got %v", got)
	}
	edges := []time.Duration{0, time.Second, 2 * time.Second}
	var waited []time.Duration
	if got := stealBetween(edges, func(e time.Duration) { waited = append(waited, e) }); len(got) != 2 || !reflect.DeepEqual(waited, edges) {
		t.Errorf("stealBetween sampled %v for %v intervals", waited, len(got))
	}
}

// loopTransport hands each Listen handler to the test.
type loopTransport struct {
	transport.Transport
	h transport.HandlerFunc
}

func (l *loopTransport) Listen(_ string, h transport.HandlerFunc) (transport.Listener, error) {
	l.h = h
	return nil, nil
}

func TestPushWatchKeepsTheLastHandledList(t *testing.T) {
	inner := &loopTransport{}
	p := &pushWatch{Transport: inner}
	handled := 0
	p.Listen("dp", func(string, []byte) ([]byte, error) { handled++; return nil, nil })
	fns := makeFunctions("t", 3, 0, 0)
	for _, n := range []int{1, 3, 2} {
		inner.h(proto.MethodAddFunction, (&proto.FunctionList{Functions: fns[:n]}).Marshal())
	}
	inner.h(proto.MethodInvoke, nil)
	if handled != 4 {
		t.Errorf("the data plane handled %d messages, want 4", handled)
	}
	if got := p.lastLen(); got != 2 {
		t.Errorf("last list carried %d functions, want 2: a stale push landing last is what loses a function", got)
	}
}
