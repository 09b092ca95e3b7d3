package fleet_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dirigent/internal/controlplane"
	"dirigent/internal/core"
	"dirigent/internal/fleet"
	"dirigent/internal/proto"
	"dirigent/internal/store"
	"dirigent/internal/transport"
)

// TestConcurrentFleetRegistryStress hammers the striped worker registry
// at fleet scale under -race: a 1000-worker emulated fleet registers in
// one storm, then heartbeat floods, worker failure/re-registration
// churn, autoscale sweeps (placing across the whole fleet), health
// sweeps, function re-registration and registry reads all race each
// other. It locks in that registrations, heartbeats and sweeps rely
// only on per-shard and per-worker locks for exclusion — the PR-1
// stress-test pattern, now over the worker registry.
func TestConcurrentFleetRegistryStress(t *testing.T) {
	const (
		fleetSize    = 1000
		numFunctions = 16
		iters        = 100
	)

	tr := transport.NewInProc()
	db := store.NewMemory()
	cp := controlplane.New(controlplane.Config{
		Addr:       "stress-cp",
		Transport:  tr,
		LocalStore: db,
		// Loops parked: sweeps are driven explicitly below, and the huge
		// timeout keeps explicit health sweeps from failing parked
		// workers — failures are injected via deregistration instead.
		AutoscaleInterval: time.Hour,
		HeartbeatTimeout:  time.Hour,
	})
	if err := cp.Start(); err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()

	fl := fleet.New(fleet.Config{
		Size:              fleetSize,
		Transport:         tr,
		ControlPlanes:     []string{"stress-cp"},
		HeartbeatInterval: time.Hour, // driven explicitly
	})
	if err := fl.Start(); err != nil {
		t.Fatal(err)
	}
	defer fl.Stop()
	workers := fl.Workers()
	if got := cp.WorkerCount(); got != fleetSize {
		t.Fatalf("WorkerCount after storm = %d, want %d", got, fleetSize)
	}

	call := func(method string, payload []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		// Errors are expected under churn; the test asserts on final
		// state and on the race detector, not per-call success.
		_, _ = tr.Call(ctx, "stress-cp", method, payload)
	}

	fnName := func(i int) string { return fmt.Sprintf("fleet-stress-fn-%d", i) }
	spec := func(name string, minScale int) core.Function {
		fn := core.Function{Name: name, Image: "img", Port: 80, Scaling: core.DefaultScalingConfig()}
		fn.Scaling.MinScale = minScale
		fn.Scaling.StableWindow = time.Hour
		return fn
	}
	for i := 0; i < numFunctions; i++ {
		fn := spec(fnName(i), 1+i%4)
		call(proto.MethodRegisterFunction, core.MarshalFunction(&fn))
	}

	var wg sync.WaitGroup
	run := func(fn func(g int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := 0; g < iters; g++ {
				fn(g)
			}
		}()
	}

	// Heartbeat floods: 4 goroutines cycling disjoint fleet slices.
	for g := 0; g < 4; g++ {
		g := g
		run(func(i int) {
			workers[(g*iters*7+i*13)%fleetSize].SendHeartbeat()
		})
	}
	// Worker failure/re-registration churn: deregister (fails the worker
	// and drains its sandboxes, re-entering Reconcile) then register the
	// same node ID back — over a rotating window of the fleet.
	run(func(i int) {
		w := workers[(i*31)%fleetSize]
		req := proto.RegisterWorkerRequest{Worker: w.Node()}
		if i%2 == 0 {
			call(proto.MethodDeregisterWorker, req.Marshal())
		} else {
			call(proto.MethodRegisterWorker, req.Marshal())
		}
	})
	// Autoscale sweeps placing across the whole fleet.
	run(func(int) { cp.Reconcile() })
	// Health sweeps racing everything above.
	run(func(int) { cp.HealthSweep() })
	// Function re-registration and removal.
	run(func(i int) {
		fn := spec(fnName(i%numFunctions), 1)
		if i%3 == 2 {
			call(proto.MethodDeregisterFunction, core.MarshalFunction(&fn))
		} else {
			call(proto.MethodRegisterFunction, core.MarshalFunction(&fn))
		}
	})
	// Registry reads.
	run(func(i int) {
		cp.WorkerCount()
		cp.FunctionScale(fnName(i % numFunctions))
		if i%16 == 0 {
			call(proto.MethodClusterStatus, nil)
		}
	})

	wg.Wait()

	// Re-register everything churned away; the cluster must be coherent
	// and schedulable again.
	for _, w := range workers {
		req := proto.RegisterWorkerRequest{Worker: w.Node()}
		call(proto.MethodRegisterWorker, req.Marshal())
	}
	for i := 0; i < numFunctions; i++ {
		fn := spec(fnName(i), 1)
		call(proto.MethodRegisterFunction, core.MarshalFunction(&fn))
	}
	cp.Reconcile()
	if got := cp.WorkerCount(); got != fleetSize {
		t.Errorf("WorkerCount = %d, want %d", got, fleetSize)
	}
	if got := cp.Metrics().Gauge("fleet_size").Value(); got != fleetSize {
		t.Errorf("fleet_size gauge = %d, want %d (churn double-counted?)", got, fleetSize)
	}
	for i := 0; i < numFunctions; i++ {
		if _, ok := db.HGet("functions", fnName(i)); !ok {
			t.Errorf("function %s lost from persistent store", fnName(i))
		}
	}
}
