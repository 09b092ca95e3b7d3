package fleet_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"dirigent/internal/controlplane"
	"dirigent/internal/fleet"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// recordingTransport counts every Call by (addr, method) so tests can
// assert what each tier saw on the wire, not just end states.
type recordingTransport struct {
	transport.Transport
	mu    sync.Mutex
	calls map[string]map[string]int
}

func newRecordingTransport(inner transport.Transport) *recordingTransport {
	return &recordingTransport{Transport: inner, calls: make(map[string]map[string]int)}
}

func (r *recordingTransport) Call(ctx context.Context, addr, method string, payload []byte) ([]byte, error) {
	r.mu.Lock()
	m := r.calls[addr]
	if m == nil {
		m = make(map[string]int)
		r.calls[addr] = m
	}
	m[method]++
	r.mu.Unlock()
	return r.Transport.Call(ctx, addr, method, payload)
}

func (r *recordingTransport) count(addr, method string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls[addr][method]
}

// TestRelayAblationSeedParity pins the -relay off ablation: with no
// relays configured, the control plane sees exactly the seed's wire
// protocol — one singleton RegisterWorker per worker, one singleton
// WorkerHeartbeat per beat, and no batch methods at all. This is the
// contract that makes relay-vs-direct benchmark comparisons honest.
func TestRelayAblationSeedParity(t *testing.T) {
	const size = 24
	tr := newRecordingTransport(transport.NewInProc())
	cp := controlplane.New(controlplane.Config{
		Addr:              "parity-cp",
		Transport:         tr,
		LocalStore:        store.NewMemory(),
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Hour, // liveness driven explicitly
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()

	fl := fleet.New(fleet.Config{
		Size:              size,
		Transport:         tr,
		ControlPlanes:     []string{"parity-cp"},
		HeartbeatInterval: time.Hour, // beats driven explicitly
	})
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()

	for round := 0; round < 2; round++ {
		for _, w := range fl.Workers() {
			w.SendHeartbeat()
		}
	}

	if got := tr.count("parity-cp", proto.MethodRegisterWorker); got != size {
		t.Errorf("CP saw %d singleton RegisterWorker RPCs, want %d (seed shape)", got, size)
	}
	if got := tr.count("parity-cp", proto.MethodWorkerHeartbeat); got != 2*size {
		t.Errorf("CP saw %d singleton WorkerHeartbeat RPCs, want %d (seed shape)", got, 2*size)
	}
	if got := tr.count("parity-cp", proto.MethodWorkerHeartbeatBatch); got != 0 {
		t.Errorf("relay-off run shipped %d WorkerHeartbeatBatch RPCs, want 0", got)
	}
	if got := tr.count("parity-cp", proto.MethodRegisterWorkerBatch); got != 0 {
		t.Errorf("relay-off run shipped %d RegisterWorkerBatch RPCs, want 0", got)
	}
	if got := cp.WorkerCount(); got != size {
		t.Fatalf("WorkerCount = %d, want %d", got, size)
	}
}

// TestRelayModeBatchesLiveness is the other arm of the ablation: with a
// relay tier in place the control plane stops seeing singleton worker
// heartbeats entirely — liveness arrives as aggregated batches — while
// every worker still ends up registered and healthy.
func TestRelayModeBatchesLiveness(t *testing.T) {
	const size = 48
	tr := newRecordingTransport(transport.NewInProc())
	cp := controlplane.New(controlplane.Config{
		Addr:              "parity-cp",
		Transport:         tr,
		LocalStore:        store.NewMemory(),
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Hour,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()

	relays := fleet.NewRelays(fleet.RelaysConfig{
		Count:         3,
		Transport:     tr,
		ControlPlanes: []string{"parity-cp"},
		FlushInterval: time.Hour, // flushes driven explicitly
	})
	if err := relays.Start(); err != nil {
		t.Fatal(err)
	}
	defer relays.Stop()

	fl := fleet.New(fleet.Config{
		Size:              size,
		Transport:         tr,
		ControlPlanes:     []string{"parity-cp"},
		Relays:            relays.Addrs(),
		HeartbeatInterval: time.Hour,
	})
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	if got := cp.WorkerCount(); got != size {
		t.Fatalf("WorkerCount after relayed registration storm = %d, want %d", got, size)
	}

	for round := 0; round < 2; round++ {
		for _, w := range fl.Workers() {
			w.SendHeartbeat()
		}
		relays.FlushAll()
	}

	if got := tr.count("parity-cp", proto.MethodWorkerHeartbeat); got != 0 {
		t.Errorf("CP saw %d singleton WorkerHeartbeat RPCs in relay mode, want 0", got)
	}
	if got := tr.count("parity-cp", proto.MethodWorkerHeartbeatBatch); got < 3 {
		t.Errorf("CP saw %d WorkerHeartbeatBatch RPCs, want >= 3 (one per relay per round)", got)
	}
	// The relay tier absorbed every singleton beat the workers sent.
	absorbed := 0
	for _, addr := range relays.Addrs() {
		absorbed += tr.count(addr, proto.MethodWorkerHeartbeat)
	}
	if absorbed != 2*size {
		t.Errorf("relays absorbed %d singleton heartbeats, want %d", absorbed, 2*size)
	}
}
