package controlplane

import (
	"context"
	"fmt"
	"sort"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/placement"
	"dirigent/internal/proto"
	"dirigent/internal/telemetry"
	"dirigent/internal/worker"
)

// defaultCreateBatch caps how many creations one sweep packs into a
// single per-worker RPC. Large enough that realistic bursts (the paper
// drives ~2500 cold starts/s against ~100 workers) fit in one RPC per
// worker per sweep; small enough to bound message size.
const defaultCreateBatch = 256

// autoscaleLoop is the asynchronous loop that reconciles the number of
// sandboxes per function with the autoscaler's desired scale, issuing
// sandbox creations and teardowns to worker nodes (paper §3.3, §4).
func (cp *ControlPlane) autoscaleLoop() {
	defer cp.wg.Done()
	ticker := time.NewTicker(cp.cfg.AutoscaleInterval)
	defer ticker.Stop()
	for {
		select {
		case <-cp.stopCh:
			return
		case <-ticker.C:
			if cp.IsLeader() {
				cp.Reconcile()
			}
		}
	}
}

// Reconcile runs one autoscaling pass. It is exported so that tests and
// the experiment harness can drive scaling deterministically instead of
// waiting for ticker periods.
//
// Each function's autoscaler gets one sample per sweep, recorded just
// before the decision: the mean of the function's reported load since
// the previous sweep (see functionLoad).
//
// The sweep iterates shard by shard, holding only one shard's lock while
// it snapshots that shard's scaling decisions; sandbox transitions and
// metric reports for functions in other shards proceed concurrently with
// the pass instead of stalling behind a global lock for the whole sweep.
//
// Scale-up is pipelined: every placement decision the sweep makes is
// staged first, then fanned out as one CreateSandboxBatch RPC per worker
// (concurrently across workers), and every function whose endpoint set
// changed shares one coalesced UpdateEndpointsBatch RPC per data plane.
// CreateBatch=1 restores the seed's per-sandbox/per-function RPCs.
func (cp *ControlPlane) Reconcile() {
	now := cp.clk.Now()
	var ups []scaleUp
	var kills []*sandboxState
	drained := make(map[string]bool)

	suppressDownscale := false
	if at := cp.recoveredAt.Load(); at != nil {
		suppressDownscale = now.Sub(*at) < cp.cfg.NoDownscaleWindow
	}
	cp.forEachShard(func(sh *functionShard) {
		for _, fs := range sh.fns {
			ready, creating := fs.counts()
			current := ready + creating
			fs.scaler.Record(now, fs.load.sweep(now))
			desired := fs.scaler.Desired(now, current)
			switch {
			case desired > current:
				ups = append(ups, fs.reserve(desired-current))
			case desired < current && !suppressDownscale:
				// Tear down surplus sandboxes, preferring ready ones last so
				// that in-flight creations are cancelled first conceptually;
				// since creations cannot be cancelled mid-flight, we kill
				// ready sandboxes beyond the desired count.
				surplus := current - desired
				var victims []*sandboxState
				for _, sb := range fs.sandboxes {
					if len(victims) == surplus {
						break
					}
					if sb.phase == phaseReady {
						victims = append(victims, sb)
					}
				}
				for _, sb := range victims {
					delete(fs.sandboxes, sb.id)
				}
				if len(victims) > 0 {
					kills = append(kills, victims...)
					drained[fs.fn.Name] = true
				}
			}
		}
	})

	cp.dispatchCreates(cp.placeScaleUps(ups), now)
	cp.dispatchKills(kills)
	cp.broadcastEndpointsBatch(sortedKeys(drained))
}

// scaleUp is one function's reserved scale-up: n creations already
// counted in fs.placing, waiting for placeScaleUps.
type scaleUp struct {
	fs *functionState
	fn core.Function
	n  int
}

// reserve counts n creations in placing until placeSandbox places them.
// Callers hold the function's shard lock and made the scaling decision
// under it, so the decision and the reservation are one step.
func (fs *functionState) reserve(n int) scaleUp {
	fs.placing += n
	return scaleUp{fs: fs, fn: fs.fn, n: n}
}

// placeScaleUps places every reserved creation and returns them staged
// for dispatchCreates.
func (cp *ControlPlane) placeScaleUps(ups []scaleUp) []*stagedCreate {
	var staged []*stagedCreate
	for _, up := range ups {
		for i := 0; i < up.n; i++ {
			if sc := cp.placeSandbox(up.fs, up.fn); sc != nil {
				staged = append(staged, sc)
			}
		}
	}
	return staged
}

// stagedCreate is one placement decision awaiting RPC dispatch: the
// sandbox already exists in phaseCreating state and its resources are
// optimistically charged to the worker.
type stagedCreate struct {
	id   core.SandboxID
	fn   core.Function
	addr string
}

// placeSandbox places one of owner's reserved creations and stages it
// for dispatch, turning the reservation into a creating sandbox (or
// dropping it when placement fails). This is the latency-critical
// cold-start path: note the absence of any persistent state update
// (design principle 2) and of any global lock — the path reads worker
// shards one at a time, takes one worker's mutex, and one function
// shard, so cold starts for unrelated functions proceed in parallel with
// registrations and heartbeats on other shards. It returns nil when
// placement fails or the function vanished.
func (cp *ControlPlane) placeSandbox(owner *functionState, fn core.Function) *stagedCreate {
	nodeID, addr, ok := cp.chargeWorker(fn)
	var id core.SandboxID
	if ok {
		id = core.SandboxID(cp.nextSandboxID.Add(1))
	}
	sh := cp.shardFor(fn.Name)
	cp.lockShard(sh)
	owner.placing--
	fs := sh.fns[fn.Name]
	if ok && fs != nil {
		fs.sandboxes[id] = &sandboxState{
			id:         id,
			function:   fn.Name,
			node:       nodeID,
			workerAddr: addr,
			phase:      phaseCreating,
			createdAt:  cp.clk.Now(),
		}
	}
	sh.mu.Unlock()
	if !ok {
		return nil
	}
	if fs == nil {
		// Function deregistered while we were placing: return the
		// optimistic utilization chargeWorker took.
		if w := cp.getWorker(nodeID); w != nil {
			w.mu.Lock()
			w.util.CPUMilliUsed -= fn.Scaling.CPUMilli
			w.util.MemoryMBUsed -= fn.Scaling.MemoryMB
			w.mu.Unlock()
		}
		return nil
	}
	cp.metrics.Counter("sandbox_creations_requested").Inc()
	return &stagedCreate{id: id, fn: fn, addr: addr}
}

// chargeWorker picks a healthy worker for one sandbox of fn and charges
// the sandbox's resources to it, so the placer sees the pending
// allocation before the next heartbeat refresh.
func (cp *ControlPlane) chargeWorker(fn core.Function) (core.NodeID, string, bool) {
	candidates := make([]placement.NodeStatus, 0, cp.workerCount.Load())
	cp.forEachWorkerShard(func(ws *workerShard) {
		for _, w := range ws.workers {
			w.mu.Lock()
			if w.healthy {
				candidates = append(candidates, placement.NodeStatus{Node: w.node, Util: w.util})
			}
			w.mu.Unlock()
		}
	})
	req := placement.Requirements{
		CPUMilli: fn.Scaling.CPUMilli,
		MemoryMB: fn.Scaling.MemoryMB,
		// Cache-aware policies match this against the digests workers
		// report in heartbeats; locality-blind policies ignore it.
		ImageHash: core.HashImage(fn.Image),
	}
	nodeID, err := cp.cfg.Placer.Place(candidates, req)
	if err != nil {
		cp.metrics.Counter("placement_failures").Inc()
		return 0, "", false
	}
	w := cp.getWorker(nodeID)
	if w == nil {
		return 0, "", false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.healthy {
		return 0, "", false
	}
	w.util.CPUMilliUsed += fn.Scaling.CPUMilli
	w.util.MemoryMBUsed += fn.Scaling.MemoryMB
	return nodeID, w.addr, true
}

// dispatchCreates fans staged creations out to their workers: one
// CreateSandboxBatch RPC per worker (chunked at cfg.CreateBatch), all
// workers in parallel. With CreateBatch=1 it degenerates to the seed's
// one-RPC-per-sandbox pipeline for the ablation. sweepStart is when the
// decision began: the autoscale pass's start, or on the scale-from-zero
// path the metric report's arrival. The gap to RPC dispatch is the
// control plane's scheduling latency contribution (cold_start_sched_ms).
func (cp *ControlPlane) dispatchCreates(staged []*stagedCreate, sweepStart time.Time) {
	if len(staged) == 0 {
		return
	}
	if cp.cfg.CreateBatch == 1 {
		for _, sc := range staged {
			cp.sendCreate(sc, sweepStart)
		}
		return
	}
	byWorker := make(map[string][]*stagedCreate)
	for _, sc := range staged {
		byWorker[sc.addr] = append(byWorker[sc.addr], sc)
	}
	for addr, batch := range byWorker {
		for len(batch) > 0 {
			chunk := batch
			if len(chunk) > cp.cfg.CreateBatch {
				chunk = chunk[:cp.cfg.CreateBatch]
			}
			batch = batch[len(chunk):]
			cp.sendCreateBatch(addr, chunk, sweepStart)
		}
	}
}

// sendCreateBatch issues one batched create RPC asynchronously, rolling
// every staged sandbox of the batch back if the worker is unreachable.
func (cp *ControlPlane) sendCreateBatch(addr string, chunk []*stagedCreate, sweepStart time.Time) {
	req := proto.CreateSandboxBatch{Creates: make([]proto.CreateSandboxRequest, 0, len(chunk))}
	for _, sc := range chunk {
		req.Creates = append(req.Creates, proto.CreateSandboxRequest{SandboxID: sc.id, Function: sc.fn})
	}
	payload := req.Marshal()
	cp.mCreateBatch.ObserveMs(float64(len(chunk)))
	sched := cp.clk.Since(sweepStart)
	for range chunk {
		cp.mSchedLatency.Observe(sched)
	}
	cp.wg.Add(1)
	go func() {
		defer cp.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := cp.cfg.Transport.Call(ctx, addr, proto.MethodCreateSandboxBatch, payload); err != nil {
			for _, sc := range chunk {
				sc := sc
				cp.withFunction(sc.fn.Name, func(fs *functionState) {
					delete(fs.sandboxes, sc.id)
				})
				cp.metrics.Counter("sandbox_create_rpc_errors").Inc()
			}
		}
	}()
}

// sendCreate issues one seed-style per-sandbox create RPC asynchronously.
func (cp *ControlPlane) sendCreate(sc *stagedCreate, sweepStart time.Time) {
	createReq := proto.CreateSandboxRequest{SandboxID: sc.id, Function: sc.fn}
	payload := createReq.Marshal()
	cp.mCreateBatch.ObserveMs(1)
	cp.mSchedLatency.Observe(cp.clk.Since(sweepStart))
	cp.wg.Add(1)
	go func() {
		defer cp.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := cp.cfg.Transport.Call(ctx, sc.addr, proto.MethodCreateSandbox, payload); err != nil {
			cp.withFunction(sc.fn.Name, func(fs *functionState) {
				delete(fs.sandboxes, sc.id)
			})
			cp.metrics.Counter("sandbox_create_rpc_errors").Inc()
		}
	}()
}

// killSandbox asks the worker to tear down one sandbox with a seed-style
// singleton RPC — the CreateBatch=1 ablation path, and the shape for
// teardowns that arrive alone. It records a size-1 kill_batch_size
// observation so the ablation's teardown telemetry mirrors the create
// path's (sendCreate observes create_batch_size 1 the same way).
func (cp *ControlPlane) killSandbox(sb *sandboxState) {
	cp.mKillBatch.ObserveMs(1)
	cp.metrics.Counter("sandbox_teardowns").Inc()
	if cp.cfg.PersistSandboxState {
		_ = cp.db.HDel(hashSandboxes, fmt.Sprintf("%d", sb.id))
	}
	addr := sb.workerAddr
	payload := worker.EncodeSandboxID(sb.id)
	cp.wg.Add(1)
	go func() {
		defer cp.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = cp.cfg.Transport.Call(ctx, addr, proto.MethodKillSandbox, payload)
	}()
}

// dispatchKills fans a sweep's teardown decisions out to their workers:
// one KillSandboxBatch RPC per worker (chunked at cfg.CreateBatch, like
// the create path), all workers in parallel — the downscale mirror of
// dispatchCreates. With CreateBatch=1 it degenerates to the seed's
// one-RPC-per-sandbox teardown for the ablation. A singleton teardown
// keeps the seed RPC shape in every configuration.
func (cp *ControlPlane) dispatchKills(kills []*sandboxState) {
	if len(kills) == 0 {
		return
	}
	if cp.cfg.CreateBatch == 1 {
		for _, sb := range kills {
			cp.killSandbox(sb)
		}
		return
	}
	byWorker := make(map[string][]core.SandboxID)
	for _, sb := range kills {
		cp.metrics.Counter("sandbox_teardowns").Inc()
		if cp.cfg.PersistSandboxState {
			_ = cp.db.HDel(hashSandboxes, fmt.Sprintf("%d", sb.id))
		}
		byWorker[sb.workerAddr] = append(byWorker[sb.workerAddr], sb.id)
	}
	for addr, ids := range byWorker {
		for len(ids) > 0 {
			chunk := ids
			if len(chunk) > cp.cfg.CreateBatch {
				chunk = chunk[:cp.cfg.CreateBatch]
			}
			ids = ids[len(chunk):]
			cp.sendKillBatch(addr, chunk)
		}
	}
}

// sendKillBatch issues one batched teardown RPC asynchronously. A
// single-sandbox chunk keeps the seed's singleton RPC shape so an
// isolated teardown is indistinguishable from the seed pipeline.
func (cp *ControlPlane) sendKillBatch(addr string, ids []core.SandboxID) {
	cp.mKillBatch.ObserveMs(float64(len(ids)))
	var method string
	var payload []byte
	if len(ids) == 1 {
		method, payload = proto.MethodKillSandbox, worker.EncodeSandboxID(ids[0])
	} else {
		batch := proto.KillSandboxBatch{IDs: ids}
		method, payload = proto.MethodKillSandboxBatch, batch.Marshal()
	}
	cp.wg.Add(1)
	go func() {
		defer cp.wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = cp.cfg.Transport.Call(ctx, addr, method, payload)
	}()
}

// healthLoop watches worker heartbeats and fails workers that go silent
// (paper §3.4.1: "Once the control plane detects no heartbeats, it
// notifies data plane components not to route requests to sandboxes on the
// affected worker node" and re-runs autoscaling). Each pass is one
// HealthSweep over per-shard registry snapshots.
func (cp *ControlPlane) healthLoop() {
	defer cp.wg.Done()
	interval := cp.cfg.HeartbeatTimeout / 4
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-cp.stopCh:
			return
		case <-ticker.C:
			if cp.IsLeader() {
				cp.HealthSweep()
			}
		}
	}
}

// failWorker removes a worker from scheduling and drains its sandboxes
// from the cluster state, then reconciles so the autoscaler re-creates
// capacity on healthy nodes. Draining sweeps the function shards one at
// a time and holds no registry lock, so a mass-failure drain never
// stalls registrations or heartbeats for surviving workers.
func (cp *ControlPlane) failWorker(id core.NodeID) {
	w := cp.getWorker(id)
	if w == nil {
		return
	}
	w.mu.Lock()
	if !w.healthy {
		w.mu.Unlock()
		return
	}
	w.healthy = false
	// Start the dead-entry GC clock: the entry lingers for DeadWorkerGC
	// so a late heartbeat can revive the node, then gets collected.
	w.failedAt = cp.clk.Now()
	w.mu.Unlock()
	touched := make(map[string]bool)
	cp.forEachShard(func(sh *functionShard) {
		for name, fs := range sh.fns {
			for sid, sb := range fs.sandboxes {
				if sb.node == id {
					delete(fs.sandboxes, sid)
					touched[name] = true
				}
			}
		}
	})
	cp.metrics.Counter("worker_failures_detected").Inc()
	cp.broadcastEndpointsBatch(sortedKeys(touched))
	// Re-run autoscaling immediately so replacement sandboxes spin up
	// elsewhere without waiting a full tick.
	cp.Reconcile()
}

// broadcastFunctions pushes the registered function list to every data
// plane.
func (cp *ControlPlane) broadcastFunctions() {
	addrs := cp.dataPlaneAddrs()
	if len(addrs) == 0 {
		return
	}
	payload := cp.functionList().Marshal()
	for _, addr := range addrs {
		cp.sendFunctionsTo(addr, payload)
	}
}

// functionList snapshots the registered functions under a fresh version:
// the leadership epoch in the high bits, as endpointUpdate builds its
// versions, and a push sequence in the low bits. Concurrent
// registrations each push a full list, and a data plane keeps only the
// newest version it has seen; minting the version and taking the
// snapshot under one lock makes the newest version also the newest
// snapshot, so a stale push can never drop a later registration.
func (cp *ControlPlane) functionList() *proto.FunctionList {
	cp.fnListMu.Lock()
	defer cp.fnListMu.Unlock()
	cp.fnListSeq++
	return &proto.FunctionList{
		Version:   cp.epoch.Load()<<32 | cp.fnListSeq,
		Functions: cp.snapshotFunctions(),
	}
}

// dataPlaneAddrs returns the addresses of the live data plane replicas —
// the broadcast fan-out set. Replicas the health monitor has failed are
// excluded, so a sweep never burns an RPC timeout per dead replica; they
// rejoin (with a cache re-warm) when their heartbeats resume.
func (cp *ControlPlane) dataPlaneAddrs() []string {
	states := cp.snapshotDataPlanes()
	addrs := make([]string, 0, len(states))
	for _, st := range states {
		st.mu.Lock()
		if st.healthy {
			addrs = append(addrs, st.addr)
		}
		st.mu.Unlock()
	}
	return addrs
}

func dataPlaneAddr(p *core.DataPlane) string {
	return fmt.Sprintf("%s:%d", p.IP, p.Port)
}

// sendFunctionsTo pushes one marshaled function list to a data plane.
// A data plane that already holds a newer list rejects it; that error
// needs no handling.
func (cp *ControlPlane) sendFunctionsTo(addr string, payload []byte) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, _ = cp.cfg.Transport.Call(ctx, addr, proto.MethodAddFunction, payload)
}

// sendEndpointsTo pushes one function's endpoint set to a single data
// plane, used when warming a newly registered replica's cache.
func (cp *ControlPlane) sendEndpointsTo(addr, function string) {
	payload := cp.endpointUpdate(function).Marshal()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, _ = cp.cfg.Transport.Call(ctx, addr, proto.MethodUpdateEndpoints, payload)
}

// sendEndpointsBatchTo warms one data plane's endpoint cache for every
// listed function in a single coalesced RPC (or per-function RPCs in the
// CreateBatch=1 ablation).
func (cp *ControlPlane) sendEndpointsBatchTo(addr string, functions []string) {
	if len(functions) == 0 {
		return
	}
	if cp.cfg.CreateBatch == 1 {
		for _, fn := range functions {
			cp.sendEndpointsTo(addr, fn)
		}
		return
	}
	for _, chunk := range cp.endpointBatchChunks(functions) {
		cp.mEndpointFanout.ObserveMs(float64(chunk.size))
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, _ = cp.cfg.Transport.Call(ctx, addr, proto.MethodUpdateEndpointsBatch, chunk.payload)
		cancel()
	}
}

// endpointChunk is one marshaled UpdateEndpointsBatch payload and the
// number of function updates it carries.
type endpointChunk struct {
	payload []byte
	size    int
}

// endpointBatchChunks builds the coalesced endpoint-update payloads for
// the listed functions, chunked at Config.CreateBatch like the create
// path so no fan-out ever builds one unbounded message (a data plane
// warming against a huge function census, say).
func (cp *ControlPlane) endpointBatchChunks(functions []string) []endpointChunk {
	var chunks []endpointChunk
	for len(functions) > 0 {
		chunk := functions
		if len(chunk) > cp.cfg.CreateBatch {
			chunk = chunk[:cp.cfg.CreateBatch]
		}
		functions = functions[len(chunk):]
		batch := proto.EndpointUpdateBatch{Updates: make([]proto.EndpointUpdate, 0, len(chunk))}
		for _, fn := range chunk {
			batch.Updates = append(batch.Updates, *cp.endpointUpdate(fn))
		}
		chunks = append(chunks, endpointChunk{payload: batch.Marshal(), size: len(batch.Updates)})
	}
	return chunks
}

// endpointUpdate builds the versioned ready-endpoint set for one
// function. Sequencing is per function under its shard lock, so
// broadcasts for unrelated functions never serialize against each other.
func (cp *ControlPlane) endpointUpdate(function string) *proto.EndpointUpdate {
	update := &proto.EndpointUpdate{Function: function}
	cp.withFunction(function, func(fs *functionState) {
		fs.epSeq++
		// Leadership epoch in the high bits keeps versions monotonic
		// across failovers, where per-function sequences restart.
		update.Version = cp.epoch.Load()<<32 | fs.epSeq
		for _, sb := range fs.sandboxes {
			if sb.phase == phaseReady {
				update.Endpoints = append(update.Endpoints, proto.SandboxInfo{
					ID:       sb.id,
					Function: function,
					Node:     sb.node,
					Addr:     sb.workerAddr,
					State:    core.SandboxReady,
				})
			}
		}
	})
	return update
}

// broadcastEndpoints pushes the current ready-endpoint set for a function
// to all data planes (paper Table 2, "Add/remove LB endpoint"). The update
// carries the full endpoint list for the function, making it idempotent.
func (cp *ControlPlane) broadcastEndpoints(function string) {
	cp.broadcastEndpointsBatch([]string{function})
}

// broadcastEndpointsBatch pushes the ready-endpoint sets of every listed
// function to all data planes in one coalesced diff RPC per data plane
// (the updates for all changed functions share the RPC, its marshaling,
// and its round trip). Versions are still minted per function under the
// function's shard lock, so per-function reordering protection is
// identical to the singleton path. In the CreateBatch=1 ablation each
// function broadcasts separately, reproducing the seed's fan-out.
func (cp *ControlPlane) broadcastEndpointsBatch(functions []string) {
	if len(functions) == 0 {
		return
	}
	addrs := cp.dataPlaneAddrs()
	if len(addrs) == 0 {
		return
	}
	if cp.cfg.CreateBatch == 1 {
		for _, fn := range functions {
			payload := cp.endpointUpdate(fn).Marshal()
			for _, addr := range addrs {
				addr := addr
				cp.wg.Add(1)
				go func() {
					defer cp.wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					defer cancel()
					_, _ = cp.cfg.Transport.Call(ctx, addr, proto.MethodUpdateEndpoints, payload)
				}()
			}
		}
		return
	}
	for _, chunk := range cp.endpointBatchChunks(functions) {
		for _, addr := range addrs {
			addr, payload := addr, chunk.payload
			cp.mEndpointFanout.ObserveMs(float64(chunk.size))
			cp.wg.Add(1)
			go func() {
				defer cp.wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				_, _ = cp.cfg.Transport.Call(ctx, addr, proto.MethodUpdateEndpointsBatch, payload)
			}()
		}
	}
}

// sortedKeys returns a set's members in deterministic order, so batched
// fan-outs and tests see stable update ordering.
func sortedKeys(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FunctionScale reports (ready, creating) sandbox counts for a function,
// used by tests and the experiment harness.
func (cp *ControlPlane) FunctionScale(name string) (ready, creating int) {
	cp.withFunction(name, func(fs *functionState) {
		ready, creating = fs.counts()
	})
	return ready, creating
}

// WorkerCount reports the number of healthy workers, scanning per-shard
// snapshots like the health monitor.
func (cp *ControlPlane) WorkerCount() int {
	n := 0
	cp.forEachWorkerShard(func(ws *workerShard) {
		for _, w := range ws.workers {
			w.mu.Lock()
			if w.healthy {
				n++
			}
			w.mu.Unlock()
		}
	})
	return n
}

// Metrics exposes the control plane's metrics registry.
func (cp *ControlPlane) Metrics() *telemetry.Registry { return cp.metrics }
