package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/cpclient"
	"dirigent/internal/dataplane"
	"dirigent/internal/frontend"
	"dirigent/internal/loadbalancer"
	"dirigent/internal/proto"
	"dirigent/internal/sandbox"
	"dirigent/internal/store"
	"dirigent/internal/telemetry"
	"dirigent/internal/transport"
	"dirigent/internal/wal"
	"dirigent/internal/worker"
)

// Deployment shape: the components the binaries under cmd/ run, built
// in one process from the same public constructors and talking over
// the TCP transport on loopback.
const (
	numCPs     = 3
	numDPs     = 3
	numWorkers = 8
)

// stack is one running deployment.
type stack struct {
	tcp        *transport.TCP
	dir        string
	cpAddrs    []string
	cpStores   []*store.Store
	asyncStore *store.Store
	cps        []*controlplane.ControlPlane
	dps        []*dataplane.DataPlane
	workers    []*worker.Worker
	lb         *frontend.LB
	client     *cpclient.Client
	cpMetrics  []*telemetry.Registry
	pushes     []*pushWatch // one per data plane
	lbMetrics  *telemetry.Registry
	stops      []func()

	leaderChanges atomic.Int64
	monStop       chan struct{}
	monDone       sync.WaitGroup
	ports         map[int]bool // reserved by freeAddr
}

// setupResult is what set-up reports besides the running stack,
// including the Raft work registration caused.
type setupResult struct {
	elapsed                 time.Duration
	registerMs              []float64
	lostFunctions           int
	registerSecs            float64
	replRounds, replEntries uint64
}

// startStack brings up the deployment in dir, registers w's functions
// and waits for every pinned sandbox to be ready at every data plane.
// wrap, when non-nil, wraps the transport handed to each component
// (named by its role and index) for tracing.
func startStack(dir string, w *workload, seed int64, images *worker.ImageRegistry,
	wrap func(transport.Transport, string) transport.Transport) (*stack, setupResult, error) {
	start := time.Now()
	s := &stack{tcp: transport.NewTCP(), dir: dir, lbMetrics: telemetry.NewRegistry(), monStop: make(chan struct{}), ports: map[int]bool{}}
	s.stops = append(s.stops, func() { s.tcp.Close() })
	tr := func(role string) transport.Transport {
		if wrap == nil {
			return s.tcp
		}
		return wrap(s.tcp, role)
	}
	var res setupResult
	fail := func(err error) (*stack, setupResult, error) {
		s.stop()
		return nil, res, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}

	// Control plane tier: three replicas over the replicated Raft log,
	// each with its own group-committed AOF store.
	for i := 0; i < numCPs; i++ {
		addr, err := s.freeAddr()
		if err != nil {
			return fail(err)
		}
		s.cpAddrs = append(s.cpAddrs, addr)
	}
	for i := 0; i < numCPs; i++ {
		db, err := store.Open(filepath.Join(dir, fmt.Sprintf("cp%d.aof", i+1)), wal.FsyncGroup)
		if err != nil {
			return fail(err)
		}
		s.cpStores = append(s.cpStores, db)
		s.stops = append(s.stops, func() { db.Close() })
		reg := telemetry.NewRegistry()
		s.cpMetrics = append(s.cpMetrics, reg)
		cp := controlplane.New(controlplane.Config{
			Addr:              s.cpAddrs[i],
			Peers:             s.cpAddrs,
			Transport:         tr(fmt.Sprintf("cp%d", i+1)),
			AutoscaleInterval: 2 * time.Second / compress,
			HeartbeatTimeout:  2 * time.Second,
			NoDownscaleWindow: 60 * time.Second / compress,
			RaftHeartbeat:     50 * time.Millisecond,
			RaftElectionMin:   150 * time.Millisecond,
			RaftElectionMax:   300 * time.Millisecond,
			LocalStore:        db,
			FollowerReads:     true,
			Metrics:           reg,
		})
		if err := cp.Start(); err != nil {
			return fail(fmt.Errorf("start control plane %d: %w", i+1, err))
		}
		s.cps = append(s.cps, cp)
		s.stops = append(s.stops, cp.Stop)
	}
	if err := waitFor(10*time.Second, "control plane leader", func() bool { return s.leader() >= 0 }); err != nil {
		return fail(err)
	}

	// Data plane tier, sharing one durable async-queue store.
	db, err := store.Open(filepath.Join(dir, "async.aof"), wal.FsyncGroup)
	if err != nil {
		return fail(err)
	}
	s.asyncStore = db
	s.stops = append(s.stops, func() { db.Close() })
	for i := 1; i <= numDPs; i++ {
		pw := &pushWatch{Transport: tr(fmt.Sprintf("dp%d", i))}
		s.pushes = append(s.pushes, pw)
		dp := dataplane.New(dataplane.Config{
			ID:                core.DataPlaneID(i),
			Addr:              "127.0.0.1:0",
			Transport:         pw,
			ControlPlanes:     s.cpAddrs,
			Balancer:          loadbalancer.NewLeastLoaded(int64(i)),
			MetricInterval:    250 * time.Millisecond / compress,
			HeartbeatInterval: 250 * time.Millisecond,
			QueueTimeout:      60 * time.Second,
			AsyncStore:        db,
		})
		if err := dp.Start(); err != nil {
			return fail(fmt.Errorf("start data plane %d: %w", i, err))
		}
		s.dps = append(s.dps, dp)
		s.stops = append(s.stops, dp.Stop)
	}

	// Workers running the containerd model, every one serving the
	// benchmark function for the benchmark image.
	for i := 1; i <= numWorkers; i++ {
		addr, err := s.freeAddr()
		if err != nil {
			return fail(err)
		}
		port, _ := strconv.Atoi(addr[len("127.0.0.1:"):])
		cache := sandbox.NewImageCache()
		wk := worker.New(worker.Config{
			Node: core.WorkerNode{
				ID: core.NodeID(i), Name: fmt.Sprintf("worker-%d", i), IP: "127.0.0.1", Port: uint16(port),
				CPUMilli: 10000, MemoryMB: 65536,
			},
			Addr: addr,
			Runtime: sandbox.NewContainerd(sandbox.Config{
				LatencyScale: 1.0 / compress, Seed: seed*numWorkers + int64(i), Images: cache,
			}),
			Transport:         tr(fmt.Sprintf("w%d", i)),
			ControlPlanes:     s.cpAddrs,
			HeartbeatInterval: 500 * time.Millisecond,
			Images:            images,
			Cache:             cache,
		})
		if err := wk.Start(); err != nil {
			return fail(fmt.Errorf("start worker %d: %w", i, err))
		}
		s.workers = append(s.workers, wk)
		s.stops = append(s.stops, wk.Stop)
	}

	// Front end, steering by the live data plane set it polls from the
	// control plane.
	s.lb = frontend.New(frontend.Config{Transport: tr("lb"), ControlPlanes: s.cpAddrs, Metrics: s.lbMetrics})
	if err := s.lb.Start(); err != nil {
		return fail(err)
	}
	s.stops = append(s.stops, s.lb.Stop)
	if err := waitFor(10*time.Second, "front end to see every data plane", func() bool {
		return len(s.lb.Replicas()) == numDPs
	}); err != nil {
		return fail(err)
	}
	if err := waitFor(10*time.Second, "workers to register", func() bool {
		l := s.leader()
		return l >= 0 && s.cps[l].WorkerCount() == numWorkers
	}); err != nil {
		return fail(err)
	}

	// Registration: every function committed through the Raft log.
	s.client = cpclient.New(tr("client"), s.cpAddrs)
	r0, e0 := s.replStats()
	t0 := time.Now()
	ms, err := s.register(w.functions)
	res.registerMs = ms
	if err != nil {
		return fail(err)
	}
	if res.lostFunctions, err = s.settleFunctions(w.functions); err != nil {
		return fail(err)
	}
	res.registerSecs = time.Since(t0).Seconds()
	r1, e1 := s.replStats()
	res.replRounds, res.replEntries = r1-r0, e1-e0
	if w.pinned > 0 {
		if err := waitFor(30*time.Second, "pinned sandboxes", func() bool {
			for _, dp := range s.dps {
				for _, f := range w.functions {
					if dp.EndpointCount(f.Name) < w.pinned {
						return false
					}
				}
			}
			return true
		}); err != nil {
			return fail(err)
		}
	}
	res.elapsed = time.Since(start)
	s.monDone.Add(1)
	go s.monitorLeader()
	return s, res, nil
}

// register commits fns through the leader from a few concurrent
// clients, returning each registration's latency in ms.
func (s *stack) register(fns []core.Function) ([]float64, error) {
	const clients = 8
	ms := make([]float64, len(fns))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(fns); i += clients {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				t0 := time.Now()
				_, err := s.client.CallWithRetry(ctx, proto.MethodRegisterFunction, core.MarshalFunction(&fns[i]))
				cancel()
				if err != nil {
					errs[c] = fmt.Errorf("register %s: %w", fns[i].Name, err)
					return
				}
				ms[i] = float64(time.Since(t0)) / float64(time.Millisecond)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return ms, err
		}
	}
	return ms, nil
}

// settleFunctions repairs what the registration race did to the data
// planes and reports how much it took. Each registration pushes the
// whole function list to every data plane and a data plane keeps the
// list it handled last, so a push built before a concurrent
// registration and landing after it drops that function from the data
// plane (every invocation of it then fails). Once every registration is
// acknowledged, the functions missing from the last list each data
// plane handled are counted, and fns' last function is registered
// again, alone: its push carries the full list.
func (s *stack) settleFunctions(fns []core.Function) (lost int, err error) {
	for _, pw := range s.pushes {
		lost += len(fns) - pw.lastLen()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.client.CallWithRetry(ctx, proto.MethodRegisterFunction, core.MarshalFunction(&fns[len(fns)-1])); err != nil {
		return lost, fmt.Errorf("settle registration: %w", err)
	}
	for i, pw := range s.pushes {
		if n := pw.lastLen(); n != len(fns) {
			return lost, fmt.Errorf("data plane %d holds %d of %d functions after settling", i+1, n, len(fns))
		}
	}
	return lost, nil
}

// pushWatch wraps a data plane's transport and records how many
// functions the last function list the control plane pushed to it
// (MethodAddFunction) carried, by when the data plane finished
// handling it.
type pushWatch struct {
	transport.Transport
	mu   sync.Mutex
	last int
}

func (p *pushWatch) Listen(addr string, h transport.HandlerFunc) (transport.Listener, error) {
	return p.Transport.Listen(addr, func(method string, payload []byte) ([]byte, error) {
		resp, err := h(method, payload)
		if method == proto.MethodAddFunction && err == nil {
			if list, derr := proto.UnmarshalFunctionList(payload); derr == nil {
				p.mu.Lock()
				p.last = len(list.Functions)
				p.mu.Unlock()
			}
		}
		return resp, err
	})
}

func (p *pushWatch) lastLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}

// freeAddr reserves a loopback address for a component that must know
// its address before it listens. The port is picked below the kernel's
// ephemeral range: a port the kernel picked (":0") could be handed to
// an outgoing connection of a component already running, between this
// probe and the component's own Listen, which then fails with "address
// already in use". Where that range starts too low, the kernel picks.
func (s *stack) freeAddr() (string, error) {
	if lo := ephemeralLow(); lo > 2048 {
		for try := 0; try < 100; try++ {
			port := 1024 + rand.Intn(lo-1024)
			if s.ports[port] {
				continue
			}
			addr := "127.0.0.1:" + strconv.Itoa(port)
			if ln, err := s.tcp.Listen(addr, func(string, []byte) ([]byte, error) { return nil, nil }); err == nil {
				ln.Close()
				s.ports[port] = true
				return addr, nil
			}
		}
	}
	ln, err := s.tcp.Listen("127.0.0.1:0", func(string, []byte) ([]byte, error) { return nil, nil })
	if err != nil {
		return "", err
	}
	addr := ln.Addr()
	ln.Close()
	return addr, nil
}

// ephemeralLow returns the first port of the kernel's ephemeral range,
// 0 where it cannot be read.
func ephemeralLow() int {
	b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	lo, _ := strconv.Atoi(f[0])
	return lo
}

// leader returns the index of the one replica claiming leadership, or
// -1 when none or several do.
func (s *stack) leader() int {
	idx := -1
	for i, cp := range s.cps {
		if cp.IsLeader() {
			if idx >= 0 {
				return -1
			}
			idx = i
		}
	}
	return idx
}

// monitorLeader counts leader changes after set-up: a new replica
// taking over from the last one seen.
func (s *stack) monitorLeader() {
	defer s.monDone.Done()
	last := s.leader()
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.monStop:
			return
		case <-t.C:
			if l := s.leader(); l >= 0 && l != last {
				if last >= 0 {
					s.leaderChanges.Add(1)
				}
				last = l
			}
		}
	}
}

// failuresDetected sums worker and data plane failure detections over
// every control plane replica.
func (s *stack) failuresDetected() int64 {
	var n int64
	for _, reg := range s.cpMetrics {
		n += reg.Counter("worker_failures_detected").Value() + reg.Counter("dataplane_failures_detected").Value()
	}
	return n
}

// replStats sums Raft AppendEntries rounds and entries over replicas.
func (s *stack) replStats() (rounds, entries uint64) {
	for _, cp := range s.cps {
		r, e := cp.ReplStats()
		rounds += r
		entries += e
	}
	return rounds, entries
}

// syncStats sums fsync rounds and records over every AOF store.
func (s *stack) syncStats() (rounds, records uint64) {
	for _, db := range append(append([]*store.Store(nil), s.cpStores...), s.asyncStore) {
		if db == nil {
			continue
		}
		r, n := db.SyncStats()
		rounds += r
		records += n
	}
	return rounds, records
}

// stop tears the deployment down in reverse start order and removes
// its files.
func (s *stack) stop() {
	select {
	case <-s.monStop:
	default:
		close(s.monStop)
	}
	s.monDone.Wait()
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
	os.RemoveAll(s.dir)
}

func waitFor(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}
