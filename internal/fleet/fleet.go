// Package fleet provides lightweight emulated worker nodes for
// fleet-scale control plane experiments (paper §5.2.3 runs the control
// plane against 5000 worker nodes). An emulated worker speaks the real
// worker protocol over the real transport — it registers, heartbeats,
// accepts create/kill (batch) instructions, reports sandbox readiness
// through the same coalescing shapes as the real daemon, and serves
// proxied invocations — but never spawns a sandbox runtime: "creating" a
// sandbox is a map insert plus an optional simulated delay. A thousand
// of them fit in one test process, which is what lets registration
// storms, heartbeat floods, autoscale sweeps and correlated failures be
// driven against the control plane's worker registry at fleet scale.
package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"dirigent/internal/clock"
	"dirigent/internal/core"
	"dirigent/internal/cpclient"
	"dirigent/internal/proto"
	"dirigent/internal/relay"
	"dirigent/internal/telemetry"
	"dirigent/internal/transport"
)

// WorkerConfig parameterizes one emulated worker.
type WorkerConfig struct {
	// Node identifies the worker. When Addr ends in ":0" (a real TCP
	// listener picking its port), Node.Port is overwritten with the
	// port actually bound, so the control plane's computed worker
	// address matches the listener.
	Node core.WorkerNode
	// Addr is the transport address to listen on.
	Addr string
	// Transport carries RPCs.
	Transport transport.Transport
	// ControlPlanes are the CP replica addresses.
	ControlPlanes []string
	// Relays, when non-empty, switches the worker's liveness traffic
	// (register, heartbeat) to relay mode: RPCs go to the first relay
	// that accepts them, in preference order, falling back to the direct
	// control plane path when every relay refuses. Empty keeps the
	// seed's direct WN → CP protocol exactly.
	Relays []string
	// Clock abstracts time; nil selects the wall clock.
	Clock clock.Clock
	// HeartbeatInterval is the WN → CP liveness period (default 100 ms).
	// Set it very large to park the loop and drive SendHeartbeat
	// explicitly (the benchmarks do).
	HeartbeatInterval time.Duration
	// ReadyDelay simulates sandbox creation latency: readiness is
	// reported this long after the create instruction (0 = immediately).
	ReadyDelay time.Duration
	// Handler serves proxied invocations; nil echoes the payload.
	Handler func(payload []byte) ([]byte, error)
	// HandlerFn, when set, serves proxied invocations with the invoked
	// function's name available — scenario drivers use it to emulate
	// per-function behavior (exec-time sleeps, version tagging) on one
	// shared fleet. Takes precedence over Handler.
	HandlerFn func(function string, payload []byte) ([]byte, error)
	// Metrics receives emulated-worker telemetry; the Fleet shares one
	// registry across all its workers. Nil creates a private registry.
	Metrics *telemetry.Registry
}

// Worker is one running emulated worker node.
type Worker struct {
	cfg      WorkerConfig
	clk      clock.Clock
	cp       *cpclient.Client
	live     *relay.Client // non-nil in relay mode; carries register + heartbeat
	listener transport.Listener
	metrics  *telemetry.Registry

	mu        sync.Mutex
	sandboxes map[core.SandboxID]core.Function
	creating  int
	stopped   bool

	// Emulated image cache: every image a create instruction ever named,
	// hashed and reported in heartbeats exactly like the real worker's
	// cache digest, so cache-aware placement and relay-path digest
	// aggregation can be driven at fleet scale. The sorted digest is
	// memoized and rebuilt only when an image is first seen.
	images      map[string]struct{}
	digest      []uint64
	digestStale bool

	// Readiness coalescing, mirroring the real worker: batch-delivered
	// creations queue events and a single flusher drains whatever
	// accumulated while its previous RPC was in flight.
	readyEvMu    sync.Mutex
	readyEvs     []proto.SandboxEvent
	readyFlusher bool

	stopCh chan struct{}
	wg     sync.WaitGroup

	mCreates    *telemetry.Counter
	mHeartbeats *telemetry.Counter
	mReadyBatch *telemetry.Histogram
}

// NewWorker builds an emulated worker; call Start to register and serve.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 100 * time.Millisecond
	}
	if cfg.Handler == nil {
		cfg.Handler = func(p []byte) ([]byte, error) { return p, nil }
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	w := &Worker{
		cfg:       cfg,
		clk:       cfg.Clock,
		cp:        cpclient.New(cfg.Transport, cfg.ControlPlanes),
		metrics:   cfg.Metrics,
		sandboxes: make(map[core.SandboxID]core.Function),
		images:    make(map[string]struct{}),
		stopCh:    make(chan struct{}),
	}
	if len(cfg.Relays) > 0 {
		w.live = relay.NewClient(cfg.Transport, cfg.Relays, cfg.ControlPlanes)
		w.live.Fallbacks = cfg.Metrics.Counter("relay_fallbacks")
	}
	w.mCreates = w.metrics.Counter("emu_creates")
	w.mHeartbeats = w.metrics.Counter("emu_heartbeats")
	w.mReadyBatch = w.metrics.CountHistogram("emu_ready_batch_size")
	return w
}

// Start listens, registers the worker with the control plane, and begins
// heartbeating.
func (w *Worker) Start() error {
	ln, err := w.cfg.Transport.Listen(w.cfg.Addr, w.handleRPC)
	if err != nil {
		return fmt.Errorf("fleet worker %s: %w", w.cfg.Node.Name, err)
	}
	w.listener = ln
	// A ":0" listen address means the transport picked the port: adopt
	// it so the CP-side worker address (IP:Port) routes back here.
	if host, port, ok := splitHostPort(ln.Addr()); ok && w.cfg.Node.Port == 0 {
		w.cfg.Addr = ln.Addr()
		w.cfg.Node.IP = host
		w.cfg.Node.Port = port
	}
	if err := w.Register(); err != nil {
		ln.Close()
		return err
	}
	w.wg.Add(1)
	go w.heartbeatLoop()
	return nil
}

// Register (re-)announces the worker to the control plane. Exported so
// tests can re-register a previously failed worker ID. Direct mode rides
// out CP leader elections with the client's capped-backoff retry; relay
// mode inherits the relay's own retry on its CP leg.
func (w *Worker) Register() error {
	req := proto.RegisterWorkerRequest{Worker: w.cfg.Node}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var err error
	if w.live != nil {
		_, err = w.live.Call(ctx, proto.MethodRegisterWorker, req.Marshal())
	} else {
		_, err = w.cp.CallWithRetry(ctx, proto.MethodRegisterWorker, req.Marshal())
	}
	if err != nil {
		return fmt.Errorf("fleet worker %s: register: %w", w.cfg.Node.Name, err)
	}
	return nil
}

// liveCall routes the liveness protocol (register, heartbeat): through the
// relay tier in relay mode, directly to the control plane otherwise. Every
// other RPC the worker makes stays on the direct path — relays carry only
// the per-worker traffic that dominates at fleet scale.
func (w *Worker) liveCall(ctx context.Context, method string, payload []byte) ([]byte, error) {
	if w.live != nil {
		return w.live.Call(ctx, method, payload)
	}
	return w.cp.Call(ctx, method, payload)
}

// Stop simulates a worker crash: heartbeats stop and RPCs stop being
// served, with no deregistration — the control plane must detect the
// failure by heartbeat timeout, exactly like a real dead node.
func (w *Worker) Stop() {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.stopped = true
	w.mu.Unlock()
	close(w.stopCh)
	if w.listener != nil {
		w.listener.Close()
	}
	w.wg.Wait()
}

// Node returns the worker's identity (with the resolved port).
func (w *Worker) Node() core.WorkerNode { return w.cfg.Node }

// Addr returns the worker's RPC address.
func (w *Worker) Addr() string { return w.cfg.Addr }

// SandboxCount returns the number of emulated sandboxes currently held.
func (w *Worker) SandboxCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sandboxes)
}

// SendHeartbeat sends one WN → CP heartbeat with the current emulated
// utilization. The heartbeat loop calls it on its period; benchmarks
// park the loop and call it directly to drive heartbeat storms.
func (w *Worker) SendHeartbeat() {
	hb := proto.WorkerHeartbeat{Node: w.cfg.Node.ID, Util: w.utilization()}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, _ = w.liveCall(ctx, proto.MethodWorkerHeartbeat, hb.Marshal())
	w.mHeartbeats.Inc()
}

func (w *Worker) utilization() core.NodeUtilization {
	w.mu.Lock()
	defer w.mu.Unlock()
	var cpu, mem int
	for _, fn := range w.sandboxes {
		cpu += fn.Scaling.CPUMilli
		mem += fn.Scaling.MemoryMB
	}
	return core.NodeUtilization{
		Node:          w.cfg.Node.ID,
		CPUMilliUsed:  cpu,
		MemoryMBUsed:  mem,
		SandboxCount:  len(w.sandboxes),
		CreationQueue: w.creating,
		CacheDigest:   w.digestLocked(),
	}
}

// digestLocked returns the sorted image-cache digest, rebuilding it only
// when a new image appeared since the last call. Callers must hold w.mu;
// the returned slice is shared and treated as read-only.
func (w *Worker) digestLocked() []uint64 {
	if w.digestStale {
		w.digest = w.digest[:0]
		for img := range w.images {
			w.digest = append(w.digest, core.HashImage(img))
		}
		sort.Slice(w.digest, func(i, j int) bool { return w.digest[i] < w.digest[j] })
		w.digestStale = false
	}
	return w.digest
}

func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.stopCh:
			return
		case <-w.clk.After(w.cfg.HeartbeatInterval):
			w.SendHeartbeat()
		}
	}
}

// handleRPC serves CP → WN and DP → WN calls with the real method set.
func (w *Worker) handleRPC(method string, payload []byte) ([]byte, error) {
	switch method {
	case proto.MethodCreateSandbox:
		req, err := proto.UnmarshalCreateSandboxRequest(payload)
		if err != nil {
			return nil, err
		}
		return nil, w.createSandbox(req, false)
	case proto.MethodCreateSandboxBatch:
		batch, err := proto.UnmarshalCreateSandboxBatch(payload)
		if err != nil {
			return nil, err
		}
		for i := range batch.Creates {
			if err := w.createSandbox(&batch.Creates[i], true); err != nil {
				return nil, err
			}
		}
		return nil, nil
	case proto.MethodKillSandbox:
		var id uint64
		for i := 0; i < 8 && i < len(payload); i++ {
			id |= uint64(payload[i]) << (8 * i)
		}
		w.mu.Lock()
		delete(w.sandboxes, core.SandboxID(id))
		w.mu.Unlock()
		w.dropQueuedReady(core.SandboxID(id))
		return nil, nil
	case proto.MethodKillSandboxBatch:
		batch, err := proto.UnmarshalKillSandboxBatch(payload)
		if err != nil {
			return nil, err
		}
		w.mu.Lock()
		for _, id := range batch.IDs {
			delete(w.sandboxes, id)
		}
		w.mu.Unlock()
		for _, id := range batch.IDs {
			w.dropQueuedReady(id)
		}
		return nil, nil
	case proto.MethodListSandboxes:
		return w.listSandboxes().Marshal(), nil
	case proto.MethodInvokeSandbox:
		req, err := proto.UnmarshalInvokeSandboxRequest(payload)
		if err != nil {
			return nil, err
		}
		w.mu.Lock()
		_, ok := w.sandboxes[req.SandboxID]
		w.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("fleet worker %s: invoke: no such sandbox %d", w.cfg.Node.Name, req.SandboxID)
		}
		if w.cfg.HandlerFn != nil {
			return w.cfg.HandlerFn(req.Function, req.Payload)
		}
		return w.cfg.Handler(req.Payload)
	default:
		return nil, fmt.Errorf("fleet worker: unknown method %q", method)
	}
}

// createSandbox emulates a creation: the instruction is acked, and after
// ReadyDelay the sandbox appears and readiness is reported — through the
// coalescing flusher for batch-delivered instructions, or a synchronous
// singleton RPC for seed-style per-sandbox ones, mirroring the real
// worker so the CreateBatch=1 ablation keeps its seed shape end to end.
func (w *Worker) createSandbox(req *proto.CreateSandboxRequest, batched bool) error {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return fmt.Errorf("fleet worker %s: stopped", w.cfg.Node.Name)
	}
	w.creating++
	if img := req.Function.Image; img != "" {
		if _, ok := w.images[img]; !ok {
			w.images[img] = struct{}{}
			w.digestStale = true
		}
	}
	w.mu.Unlock()
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		if w.cfg.ReadyDelay > 0 {
			select {
			case <-w.stopCh:
				return
			case <-w.clk.After(w.cfg.ReadyDelay):
			}
		}
		w.mu.Lock()
		w.creating--
		if w.stopped {
			w.mu.Unlock()
			return
		}
		w.sandboxes[req.SandboxID] = req.Function
		w.mu.Unlock()
		w.mCreates.Inc()
		ev := proto.SandboxEvent{
			SandboxID: req.SandboxID,
			Function:  req.Function.Name,
			Node:      w.cfg.Node.ID,
			Addr:      w.cfg.Addr,
		}
		if batched {
			w.queueReady(ev)
			return
		}
		w.mReadyBatch.ObserveMs(1)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = w.cp.Call(ctx, proto.MethodSandboxReady, ev.Marshal())
	}()
	return nil
}

// queueReady enqueues one readiness event and ensures a flusher drains
// the queue, one SandboxReadyBatch RPC per in-flight window.
func (w *Worker) queueReady(ev proto.SandboxEvent) {
	w.readyEvMu.Lock()
	w.readyEvs = append(w.readyEvs, ev)
	if w.readyFlusher {
		w.readyEvMu.Unlock()
		return
	}
	w.readyFlusher = true
	w.readyEvMu.Unlock()
	w.wg.Add(1)
	go w.flushReadyLoop()
}

func (w *Worker) flushReadyLoop() {
	defer w.wg.Done()
	for {
		w.readyEvMu.Lock()
		evs := w.readyEvs
		w.readyEvs = nil
		if len(evs) == 0 {
			w.readyFlusher = false
			w.readyEvMu.Unlock()
			return
		}
		w.readyEvMu.Unlock()
		w.mReadyBatch.ObserveMs(float64(len(evs)))
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if len(evs) == 1 {
			_, _ = w.cp.Call(ctx, proto.MethodSandboxReady, evs[0].Marshal())
		} else {
			batch := proto.SandboxEventBatch{Events: evs}
			_, _ = w.cp.Call(ctx, proto.MethodSandboxReadyBatch, batch.Marshal())
		}
		cancel()
	}
}

// dropQueuedReady discards queued-but-unsent readiness events for a
// killed sandbox so a stale report can't resurrect it (same hazard the
// real worker guards against).
func (w *Worker) dropQueuedReady(id core.SandboxID) {
	w.readyEvMu.Lock()
	kept := w.readyEvs[:0]
	for _, ev := range w.readyEvs {
		if ev.SandboxID != id {
			kept = append(kept, ev)
		}
	}
	w.readyEvs = kept
	w.readyEvMu.Unlock()
}

func (w *Worker) listSandboxes() *proto.SandboxList {
	w.mu.Lock()
	defer w.mu.Unlock()
	list := &proto.SandboxList{}
	for id, fn := range w.sandboxes {
		list.Sandboxes = append(list.Sandboxes, proto.SandboxInfo{
			ID:       id,
			Function: fn.Name,
			Node:     w.cfg.Node.ID,
			Addr:     w.cfg.Addr,
			State:    core.SandboxReady,
		})
	}
	return list
}

func splitHostPort(addr string) (string, uint16, bool) {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			var port uint16
			for _, c := range addr[i+1:] {
				if c < '0' || c > '9' {
					return addr, 0, false
				}
				port = port*10 + uint16(c-'0')
			}
			return addr[:i], port, true
		}
	}
	return addr, 0, false
}
