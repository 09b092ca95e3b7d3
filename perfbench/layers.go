package main

import (
	"time"
)

// counters is a snapshot of the cumulative counters the per-window
// rates difference.
type counters struct {
	wall                    time.Time
	cpu                     time.Duration
	rt                      rtSample
	replRounds, replEntries uint64
	syncRounds, syncRecords uint64
	failures                int64
	failovers               int64
	leaderChanges           int64
	steal, hostTotal        uint64
}

func (s *stack) snapshot() counters {
	c := counters{wall: time.Now(), cpu: cpuTime(), rt: sampleRuntime()}
	c.replRounds, c.replEntries = s.replStats()
	c.syncRounds, c.syncRecords = s.syncStats()
	c.failures = s.failuresDetected()
	c.failovers = s.lbMetrics.Counter("dataplane_failovers").Value()
	c.leaderChanges = s.leaderChanges.Load()
	c.steal, c.hostTotal = hostCPU()
	return c
}

// perLayer computes the traced run's per-layer metrics over win from
// the joined spans, the counter snapshots at its edges, and the
// untraced window's sched p50 (for the tracing overhead).
func perLayer(r *run, j *joins, win window, c0, c1 counters,
	untraced, traced clientStats, setup setupResult) (map[string]float64, *breakdown, *breakdown) {
	lo, hi := int64(r.loadStart+win.lo), int64(r.loadStart+win.hi)
	secs := win.seconds()
	in := func(sp *span) bool { return sp.start >= lo && sp.start < hi }
	m := map[string]float64{}

	warm, cold := r.paths(j, win)

	// Invocation hops, over every sync request whose four spans joined.
	var feSelf, hops, warmSelf, wSelf, coldWait, asyncAccept []float64
	invocations := 0
	for i := range r.w.ops {
		o := &r.w.ops[i]
		if !win.has(o.at) {
			continue
		}
		invocations++
		h := &j.hops[i]
		res := &r.res[i]
		if o.async {
			if h.dpHandle != nil {
				asyncAccept = append(asyncAccept, msOf(h.dpHandle.dur()))
			}
			if h.dpCall != nil && h.wHandle != nil {
				_, ws := r.workerHops(i, h)
				wSelf = append(wSelf, usOf(ws))
			}
			continue
		}
		if !h.complete() || res.err || res.echoBad {
			continue
		}
		_, fe, lbDP := r.commonHops(i, h)
		dpW, ws := r.workerHops(i, h)
		feSelf = append(feSelf, usOf(fe))
		hops = append(hops, usOf(lbDP), usOf(dpW))
		wSelf = append(wSelf, usOf(ws))
		if res.cold {
			coldWait = append(coldWait, msOf(h.dpCall.start-h.dpHandle.start))
		} else {
			warmSelf = append(warmSelf, usOf(h.dpHandle.dur()-h.dpCall.dur()))
		}
	}
	m["frontend.self_p50_us"] = percentile(feSelf, 50)
	m["frontend.failovers"] = float64(c1.failovers - c0.failovers)
	m["transport.hop_p50_us"] = percentile(hops, 50)
	m["dataplane.warm_self_p50_us"] = percentile(warmSelf, 50)
	m["dataplane.cold_wait_p50_ms"] = percentile(coldWait, 50)
	m["dataplane.cold_wait_p99_ms"] = percentile(coldWait, 99)
	m["dataplane.dispatch_p50_ms"] = percentile(cold.hop("dataplane.dispatch"), 50)
	m["dataplane.cold_frac"] = ratio(float64(traced.cold), float64(traced.syncOK))
	m["dataplane.async_accept_p50_ms"] = percentile(asyncAccept, 50)
	m["dataplane.async_accept_p99_ms"] = percentile(asyncAccept, 99)
	m["dataplane.async_sched_p50_ms"] = percentile(traced.asyncSchedMs, 50)
	m["dataplane.async_duplicates"] = float64(traced.asyncDup)
	m["worker.invoke_self_p50_us"] = percentile(wSelf, 50)
	m["controlplane.metric_wait_p50_ms"] = percentile(cold.hop("controlplane.metric_wait"), 50)
	m["controlplane.sweep_wait_p50_ms"] = percentile(cold.hop("controlplane.sweep_wait"), 50)
	m["controlplane.fanout_p50_ms"] = percentile(cold.hop("controlplane.fanout"), 50)

	// Busy time and volume per layer, from every span in the window.
	var rpcs, bytes, entries, kills int
	var metricBusy, readyBusy, updateBusy int64
	var createRPCs int
	var created []uint64
	for rk, list := range j.byRPC {
		for _, sp := range list {
			if !in(sp) {
				continue
			}
			role := j.roles[sp.node]
			if sp.call {
				rpcs++
				bytes += int(sp.bytes)
			}
			switch {
			case rk == rpcMetric && !sp.call && role == roleCP:
				metricBusy += sp.dur()
				if !sp.err {
					entries += int(sp.entries)
				}
			case rk == rpcReady && !sp.call && role == roleCP:
				readyBusy += sp.dur()
			case rk == rpcUpdate && !sp.call && role == roleDP:
				updateBusy += sp.dur()
			case rk == rpcKill && sp.call && !sp.err:
				kills += int(sp.entries)
			case rk == rpcCreate && sp.call && !sp.err && role == roleCP:
				createRPCs++
				for _, k := range sp.keys {
					created = append(created, k.sb)
				}
			}
		}
	}
	m["transport.rpcs_per_invocation"] = ratio(float64(rpcs), float64(invocations))
	m["transport.bytes_per_invocation"] = ratio(float64(bytes), float64(invocations))
	m["dataplane.endpoint_update_busy_ms_per_s"] = msOf(updateBusy) / secs
	m["controlplane.metric_entries_per_s"] = float64(entries) / secs
	m["controlplane.metric_ingest_busy_ms_per_s"] = msOf(metricBusy) / secs
	m["controlplane.ready_busy_ms_per_s"] = msOf(readyBusy) / secs
	var createMs []float64
	for _, sb := range created {
		if t5, ok := j.ready[sb]; ok {
			createMs = append(createMs, msOf(t5-j.create[sb]))
		}
	}
	m["controlplane.creates_per_cold_start"] = ratio(float64(len(created)), float64(traced.cold))
	m["controlplane.register_p50_ms"] = percentile(setup.registerMs, 50)
	m["controlplane.register_lost_functions"] = float64(setup.lostFunctions)
	m["controlplane.failures_detected"] = float64(c1.failures - c0.failures)
	m["worker.create_p50_ms"] = percentile(createMs, 50)
	m["worker.create_batch_mean"] = ratio(float64(len(created)), float64(createRPCs))
	m["worker.kills_per_s"] = float64(kills) / secs

	// Replication: the Raft log carries writes only at registration
	// (sandbox state is not persisted), so its rates are taken over
	// set-up. The stores are measured under load, where async accepts
	// write them.
	m["raft.append_per_s"] = float64(setup.replRounds) / setup.registerSecs
	m["raft.entries_per_round"] = ratio(float64(setup.replEntries), float64(setup.replRounds))
	m["raft.leader_changes"] = float64(c1.leaderChanges - c0.leaderChanges)
	fsyncs := float64(c1.syncRounds - c0.syncRounds)
	m["store.fsync_rounds_per_s"] = fsyncs / secs
	m["store.records_per_round"] = ratio(float64(c1.syncRecords-c0.syncRecords), fsyncs)
	m["runtime.gc_cpu_frac"] = ratio(c1.rt.gcCPU-c0.rt.gcCPU, c1.rt.totalCPU-c0.rt.totalCPU)
	m["runtime.alloc_mb_per_s"] = (c1.rt.allocBytes - c0.rt.allocBytes) / (1 << 20) / secs

	m["loadgen.late_p99_ms"] = percentile(append([]float64(nil), traced.lateMs...), 99)
	m["trace.overhead_p50_ms"] = median(traced.schedMs) - median(untraced.schedMs)
	return m, warm, cold
}
