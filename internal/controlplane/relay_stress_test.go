package controlplane

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// TestConcurrentRelayBatchIngest hammers the relay ingest paths under
// -race at fleet scale: crafted heartbeat-batch floods from many fake
// relays (overlapping membership, Missing lists, unknown node IDs) race
// continuous health sweeps, singleton heartbeats, and registration-batch
// storms racing recovery rebuilds. It locks in that the per-shard batch
// ingest, the suspect set, the relay freshness map, and rebuildWorkers
// never rely on a global lock for exclusion.
func TestConcurrentRelayBatchIngest(t *testing.T) {
	fleetSize := 5000
	if testing.Short() {
		fleetSize = 1024
	}
	const (
		numRelays = 16
		iters     = 40
	)

	tr := transport.NewInProc()
	db := store.NewMemory()
	cp := New(Config{
		Addr:       "cpr0",
		Transport:  tr,
		LocalStore: db,
		// Sweeps are driven explicitly below; park the tickers. The huge
		// timeout keeps the racing sweeps from failing live workers.
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Hour,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()

	call := func(method string, payload []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// Errors are irrelevant here; the test asserts on final state
		// and on the race detector, not per-call success.
		_, _ = tr.Call(ctx, "cpr0", method, payload)
	}

	node := func(id int) core.WorkerNode {
		return core.WorkerNode{
			ID: core.NodeID(id), Name: fmt.Sprintf("sw%d", id),
			IP: fmt.Sprintf("10.3.%d.%d", id/256, id%256), Port: 9000,
			CPUMilli: 1 << 20, MemoryMB: 1 << 20,
		}
	}
	// Seed the registry through relayed registration batches, chunked
	// like a real relay's group commit.
	perRelay := fleetSize / numRelays
	for r := 0; r < numRelays; r++ {
		batch := proto.RegisterWorkerBatch{Relay: fmt.Sprintf("relay-%d", r)}
		hi := (r + 1) * perRelay
		if r == numRelays-1 {
			hi = fleetSize // last relay takes the division remainder
		}
		for i := r * perRelay; i < hi; i++ {
			batch.Workers = append(batch.Workers, node(i+1))
		}
		call(proto.MethodRegisterWorkerBatch, batch.Marshal())
	}

	var wg sync.WaitGroup
	spawn := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}

	// Heartbeat-batch floods: each fake relay repeatedly ships its slice,
	// deliberately overlapping its neighbor's first workers (failover
	// double-reporting) and mixing in Missing hints and unknown IDs.
	for r := 0; r < numRelays; r++ {
		r := r
		spawn(func() {
			name := fmt.Sprintf("relay-%d", r)
			lo := r*perRelay + 1
			for it := 0; it < iters; it++ {
				batch := proto.WorkerHeartbeatBatch{Relay: name}
				for i := lo; i < lo+perRelay; i++ {
					batch.Beats = append(batch.Beats, proto.WorkerHeartbeat{Node: core.NodeID(i)})
				}
				// Overlap: also vouch for the next relay's first worker.
				overlap := (lo + perRelay) % fleetSize
				batch.Beats = append(batch.Beats, proto.WorkerHeartbeat{Node: core.NodeID(overlap + 1)})
				// Hints: suspect a rotating member, plus an unknown ID the
				// ingest must ignore.
				batch.Missing = []core.NodeID{core.NodeID(lo + it%perRelay), core.NodeID(fleetSize + 500)}
				call(proto.MethodWorkerHeartbeatBatch, batch.Marshal())
			}
		})
	}

	// Singleton heartbeats race the batches on the same shards.
	spawn(func() {
		for it := 0; it < iters*8; it++ {
			hb := proto.WorkerHeartbeat{Node: core.NodeID(1 + it%fleetSize)}
			call(proto.MethodWorkerHeartbeat, hb.Marshal())
		}
	})

	// Health sweeps race the floods (mix of fast and full passes).
	spawn(func() {
		for it := 0; it < iters; it++ {
			cp.HealthSweep()
		}
	})

	// Registration-batch storms race recovery rebuilds: re-registration
	// of existing workers plus a rotating band of fresh ones.
	spawn(func() {
		for it := 0; it < iters/2; it++ {
			batch := proto.RegisterWorkerBatch{Relay: "relay-reg"}
			for i := 0; i < 64; i++ {
				batch.Workers = append(batch.Workers, node(1+(it*64+i)%(fleetSize+128)))
			}
			call(proto.MethodRegisterWorkerBatch, batch.Marshal())
		}
	})
	spawn(func() {
		for it := 0; it < 4; it++ {
			cp.recover()
		}
	})

	wg.Wait()
	// Settle: one final rebuild from the store, then verify the registry
	// and the persisted records agree and every worker is healthy.
	cp.recover()
	cp.HealthSweep()
	persisted := len(db.HGetAll(hashWorkers))
	if got := cp.WorkerCount(); got != persisted {
		t.Fatalf("registry/store diverged: WorkerCount = %d, persisted = %d", got, persisted)
	}
	if persisted < fleetSize {
		t.Fatalf("persisted %d workers, want >= %d", persisted, fleetSize)
	}
	if got := cp.Metrics().Gauge("fleet_size").Value(); int(got) != persisted {
		t.Errorf("fleet_size gauge = %d, want %d", got, persisted)
	}
}
