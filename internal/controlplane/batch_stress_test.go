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

// TestConcurrentBatchedScalePath hammers the batched cold-start pipeline
// under -race: concurrent autoscale sweeps (issuing per-worker create
// batches and coalesced endpoint fan-outs) race worker churn
// (register/deregister, which re-enters Reconcile via failWorker),
// function remove/re-register, batched readiness reports, and heartbeat
// floods. It locks in that the staged-create/dispatch split and the
// batch fan-out never rely on a global lock for exclusion.
func TestConcurrentBatchedScalePath(t *testing.T) {
	const (
		numFunctions = 32
		numWorkers   = 4
		iters        = 100
	)

	tr := transport.NewInProc()
	db := store.NewMemory()
	cp := New(Config{
		Addr:       "cpb0",
		Transport:  tr,
		LocalStore: db,
		// Sweeps are driven explicitly below; park the tickers.
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
		// Errors are expected under churn; the test asserts on final
		// state and on the race detector, not per-call success.
		_, _ = tr.Call(ctx, "cpb0", method, payload)
	}

	workerReq := func(w int) proto.RegisterWorkerRequest {
		return proto.RegisterWorkerRequest{Worker: core.WorkerNode{
			ID: core.NodeID(w), Name: fmt.Sprintf("bw%d", w), IP: fmt.Sprintf("10.1.0.%d", w),
			Port: 9000, CPUMilli: 1 << 20, MemoryMB: 1 << 20,
		}}
	}
	for w := 1; w <= numWorkers; w++ {
		startFakeWorker(t, tr, "cpb0", core.NodeID(w), fmt.Sprintf("10.1.0.%d:9000", w), true)
		req := workerReq(w)
		call(proto.MethodRegisterWorker, req.Marshal())
	}
	startFakeDP(t, tr, "bdp0:8000")
	reg := proto.RegisterDataPlaneRequest{DataPlane: core.DataPlane{ID: 1, IP: "bdp0", Port: 8000}}
	call(proto.MethodRegisterDataPlane, reg.Marshal())

	fnName := func(i int) string { return fmt.Sprintf("batch-fn-%d", i) }
	// Scale-hungry functions: MinScale keeps every sweep issuing creates.
	scaled := func(name string, minScale int) core.Function {
		fn := fnSpec(name)
		fn.Scaling.MinScale = minScale
		return fn
	}
	for i := 0; i < numFunctions; i++ {
		fn := scaled(fnName(i), 1+i%4)
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

	// Concurrent autoscale sweeps: each issues batched creates for every
	// under-scaled function and a coalesced endpoint fan-out.
	for g := 0; g < 4; g++ {
		run(func(int) { cp.Reconcile() })
	}
	// Worker churn: deregister (drains endpoints, re-enters Reconcile)
	// then re-register the same node.
	run(func(i int) {
		w := i%numWorkers + 1
		req := workerReq(w)
		if i%2 == 0 {
			call(proto.MethodDeregisterWorker, req.Marshal())
		} else {
			call(proto.MethodRegisterWorker, req.Marshal())
		}
	})
	// Function remove/re-register racing the sweeps that create for them.
	run(func(i int) {
		fn := scaled(fnName(i%numFunctions), 1)
		if i%3 == 2 {
			call(proto.MethodDeregisterFunction, core.MarshalFunction(&fn))
		} else {
			call(proto.MethodRegisterFunction, core.MarshalFunction(&fn))
		}
	})
	// Batched readiness reports racing the singleton path.
	run(func(i int) {
		batch := proto.SandboxEventBatch{}
		for e := 0; e < 4; e++ {
			batch.Events = append(batch.Events, proto.SandboxEvent{
				SandboxID: core.SandboxID(2_000_000 + i*4 + e),
				Function:  fnName((i + e) % numFunctions),
				Node:      core.NodeID(i%numWorkers + 1),
				Addr:      fmt.Sprintf("10.1.0.%d:9000", i%numWorkers+1),
			})
		}
		call(proto.MethodSandboxReadyBatch, batch.Marshal())
	})
	// Heartbeats and reads.
	run(func(i int) {
		hb := proto.WorkerHeartbeat{Node: core.NodeID(i%numWorkers + 1)}
		call(proto.MethodWorkerHeartbeat, hb.Marshal())
		cp.FunctionScale(fnName(i % numFunctions))
		if i%16 == 0 {
			call(proto.MethodClusterStatus, nil)
		}
	})

	wg.Wait()
	// Re-register everything churned away, then verify the cluster is
	// still coherent and schedulable.
	for w := 1; w <= numWorkers; w++ {
		req := workerReq(w)
		call(proto.MethodRegisterWorker, req.Marshal())
	}
	for i := 0; i < numFunctions; i++ {
		fn := scaled(fnName(i), 1)
		call(proto.MethodRegisterFunction, core.MarshalFunction(&fn))
	}
	cp.Reconcile()
	if got := cp.WorkerCount(); got != numWorkers {
		t.Errorf("WorkerCount = %d, want %d", got, numWorkers)
	}
	for i := 0; i < numFunctions; i++ {
		if _, ok := db.HGet(hashFunctions, fnName(i)); !ok {
			t.Errorf("function %s lost from persistent store", fnName(i))
		}
	}
}

// TestCreateBatchAblationSeedParity locks in the CreateBatch=1 ablation:
// the control plane must issue one CreateSandbox RPC per sandbox and
// zero batch RPCs, reproducing the seed pipeline exactly.
func TestCreateBatchAblationSeedParity(t *testing.T) {
	for _, tc := range []struct {
		name        string
		createBatch int
		wantBatches bool
	}{
		{"seed-batch-1", 1, false},
		{"batched-default", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := transport.NewInProc()
			cp := New(Config{
				Addr:              "cpp0",
				Transport:         tr,
				LocalStore:        store.NewMemory(),
				AutoscaleInterval: time.Hour,
				HeartbeatTimeout:  time.Hour,
				CreateBatch:       tc.createBatch,
			})
			if err := cp.Start(); err != nil {
				t.Fatal(err)
			}
			defer cp.Stop()
			w := startFakeWorker(t, tr, "cpp0", 1, "10.2.0.1:9000", true)
			ctx := context.Background()
			req := proto.RegisterWorkerRequest{Worker: core.WorkerNode{
				ID: 1, Name: "pw1", IP: "10.2.0.1", Port: 9000, CPUMilli: 1 << 20, MemoryMB: 1 << 20,
			}}
			if _, err := tr.Call(ctx, "cpp0", proto.MethodRegisterWorker, req.Marshal()); err != nil {
				t.Fatal(err)
			}
			fn := fnSpec("parity")
			fn.Scaling.MinScale = 8
			if _, err := tr.Call(ctx, "cpp0", proto.MethodRegisterFunction, core.MarshalFunction(&fn)); err != nil {
				t.Fatal(err)
			}
			cp.Reconcile()
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				if ready, _ := cp.FunctionScale("parity"); ready >= 8 {
					break
				}
				time.Sleep(time.Millisecond)
			}
			if ready, _ := cp.FunctionScale("parity"); ready < 8 {
				t.Fatalf("ready = %d, want 8", ready)
			}
			w.mu.Lock()
			singles, batches := w.singleRPCs, w.batchRPCs
			w.mu.Unlock()
			if tc.wantBatches {
				if batches == 0 {
					t.Errorf("default config sent no batch RPCs (singles=%d)", singles)
				}
			} else {
				if batches != 0 || singles != 8 {
					t.Errorf("seed ablation sent %d singles + %d batches, want 8 + 0", singles, batches)
				}
				if p := cp.Metrics().Histogram("create_batch_size").Max(); p > 1 {
					t.Errorf("create_batch_size max = %.0f in seed mode, want 1", p)
				}
			}
		})
	}
}
