package dataplane

import (
	"bytes"
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

// waitCounter polls for a metrics counter to reach want — recovery and
// lease drains run in background goroutines, so counters converge rather
// than being synchronous with Start.
func waitCounter(t *testing.T, dp *DataPlane, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if dp.metrics.Counter(name).Value() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("counter %s = %d, want >= %d", name, dp.metrics.Counter(name).Value(), want)
}

func TestAsyncTaskMarshalRoundTrip(t *testing.T) {
	task := asyncTask{function: "f", payload: []byte{1, 2, 3}, attempt: 2}
	got, err := unmarshalAsyncTask(marshalAsyncTask(task))
	if err != nil {
		t.Fatal(err)
	}
	if got.function != task.function || !bytes.Equal(got.payload, task.payload) || got.attempt != task.attempt {
		t.Errorf("round trip: %+v", got)
	}
	if _, err := unmarshalAsyncTask([]byte{0xFF}); err == nil {
		t.Errorf("truncated task should fail to unmarshal")
	}
}

func TestAsyncPersistedUntilCompletion(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	startSandboxHost(t, tr, "w1:9000", 0)
	db := store.NewMemory()
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: 10 * time.Millisecond,
		QueueTimeout:   2 * time.Second,
		AsyncStore:     db,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	pushFunction(t, tr, dp.Addr(), "f")
	pushEndpoints(t, tr, dp.Addr(), "f", []core.SandboxID{1}, "w1:9000")

	req := proto.InvokeRequest{Function: "f", Async: true, Payload: []byte("x")}
	if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodInvoke, req.Marshal()); err != nil {
		t.Fatal(err)
	}
	// The task must eventually complete and the durable record disappear.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if dp.metrics.Counter("async_completed").Value() >= 1 && dp.PendingAsync() == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("async task not completed+settled: completed=%d pending=%d",
		dp.metrics.Counter("async_completed").Value(), dp.PendingAsync())
}

func TestAsyncSurvivesDataPlaneRestart(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	db := store.NewMemory()

	// First incarnation: accept async invocations for a function with no
	// sandbox and no cold-start resolution (short queue timeout + many
	// retries keep them pending), then crash.
	dp1 := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: 10 * time.Millisecond,
		QueueTimeout:   20 * time.Millisecond,
		AsyncRetries:   1_000_000,
		AsyncStore:     db,
	})
	if err := dp1.Start(); err != nil {
		t.Fatal(err)
	}
	pushFunction(t, tr, dp1.Addr(), "f")
	for i := 0; i < 3; i++ {
		req := proto.InvokeRequest{Function: "f", Async: true, Payload: []byte{byte(i)}}
		if _, err := tr.Call(context.Background(), dp1.Addr(), proto.MethodInvoke, req.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	if dp1.PendingAsync() != 3 {
		t.Fatalf("persisted = %d, want 3", dp1.PendingAsync())
	}
	dp1.Stop() // crash: tasks remain durable

	// Second incarnation with the same store: tasks are recovered and,
	// once a sandbox exists, complete.
	startSandboxHost(t, tr, "w1:9000", 0)
	dp2 := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: 10 * time.Millisecond,
		QueueTimeout:   2 * time.Second,
		AsyncRetries:   10,
		AsyncStore:     db,
	})
	if err := dp2.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp2.Stop()
	waitCounter(t, dp2, "async_recovered", 3)
	pushFunction(t, tr, dp2.Addr(), "f")
	pushEndpoints(t, tr, dp2.Addr(), "f", []core.SandboxID{1}, "w1:9000")
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if dp2.metrics.Counter("async_completed").Value() >= 3 && dp2.PendingAsync() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("recovered tasks not completed: completed=%d pending=%d",
		dp2.metrics.Counter("async_completed").Value(), dp2.PendingAsync())
}

func TestAsyncCorruptRecordDropped(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	db := store.NewMemory()
	db.HSet(asyncQueueHash, "bad", []byte{0xFF}) // unreadable record
	dp := New(Config{
		ID:            1,
		Addr:          "dp0:8000",
		Transport:     tr,
		ControlPlanes: []string{"cp"},
		AsyncStore:    db,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	waitCounter(t, dp, "async_recover_corrupt", 1)
	if db.HLen(asyncQueueHash) != 0 {
		t.Errorf("corrupt record not dropped")
	}
}

func TestPendingAsyncWithoutStore(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	dp := testDP(t, tr)
	if dp.PendingAsync() != 0 {
		t.Errorf("PendingAsync = %d", dp.PendingAsync())
	}
}

// TestAsyncShardsAblationSeedParity pins the -async-shards 1 ablation to
// the seed single-queue design: one shard, one dispatch loop feeding it,
// the seed's channel capacity, and — critically for restart
// compatibility — the seed's exact store hash for durable records.
func TestAsyncShardsAblationSeedParity(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	db := store.NewMemory()
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: time.Hour,
		QueueTimeout:   20 * time.Millisecond,
		AsyncRetries:   1_000_000, // keep tasks pending
		AsyncStore:     db,
		AsyncShards:    1,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	if len(dp.asyncShards) != 1 {
		t.Fatalf("AsyncShards=1 built %d shards", len(dp.asyncShards))
	}
	if got := dp.asyncShards[0].hash; got != asyncQueueHash {
		t.Fatalf("seed ablation store hash = %q, want %q", got, asyncQueueHash)
	}
	if got := dp.asyncShards[0].capa; got != seedAsyncQueueCap {
		t.Fatalf("seed ablation queue capacity = %d, want %d", got, seedAsyncQueueCap)
	}
	pushFunction(t, tr, dp.Addr(), "f")
	for i := 0; i < 3; i++ {
		req := proto.InvokeRequest{Function: "f", Async: true, Payload: []byte{byte(i)}}
		if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodInvoke, req.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.HLen(asyncQueueHash); got != 3 {
		t.Fatalf("seed store hash holds %d records, want 3", got)
	}
}

// TestAsyncShardsSpreadPersistence verifies the sharded queue actually
// stripes: tasks for functions in different shards persist under
// different store hashes, and PendingAsync sums across all of them.
func TestAsyncShardsSpreadPersistence(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	db := store.NewMemory()
	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: time.Hour,
		QueueTimeout:   20 * time.Millisecond,
		AsyncRetries:   1_000_000, // keep tasks pending
		AsyncStore:     db,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	hashes := make(map[string]bool)
	for i := 0; i < 16; i++ {
		fn := fmt.Sprintf("spread-%d", i)
		pushFunction(t, tr, dp.Addr(), fn)
		hashes[dp.asyncShardFor(fn).hash] = true
		req := proto.InvokeRequest{Function: fn, Async: true}
		if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodInvoke, req.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	if len(hashes) < 2 {
		t.Fatalf("16 functions all hashed to one shard; striping broken")
	}
	populated := 0
	for h := range hashes {
		if db.HLen(h) > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Errorf("durable records concentrated in %d hash(es), want >= 2", populated)
	}
	if got := dp.PendingAsync(); got != 16 {
		t.Errorf("PendingAsync = %d, want 16 across shards", got)
	}
}

// TestAsyncRecoverAcrossShardConfigs covers crash replay across
// -async-shards reconfigurations in both directions: records persisted
// by the seed single-queue config are recovered (and settled in place)
// by a sharded replica, and records persisted sharded are recovered by a
// seed-config replica.
func TestAsyncRecoverAcrossShardConfigs(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		firstShards, nextShards int
	}{
		{"seed-to-sharded", 1, 0},
		{"sharded-to-seed", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := transport.NewInProc()
			startFakeCP(t, tr, "cp")
			db := store.NewMemory()
			dp1 := New(Config{
				ID:             1,
				Addr:           "dp0:8000",
				Transport:      tr,
				ControlPlanes:  []string{"cp"},
				MetricInterval: time.Hour,
				QueueTimeout:   20 * time.Millisecond,
				AsyncRetries:   1_000_000,
				AsyncStore:     db,
				AsyncShards:    tc.firstShards,
			})
			if err := dp1.Start(); err != nil {
				t.Fatal(err)
			}
			pushFunction(t, tr, dp1.Addr(), "f")
			for i := 0; i < 3; i++ {
				req := proto.InvokeRequest{Function: "f", Async: true, Payload: []byte{byte(i)}}
				if _, err := tr.Call(context.Background(), dp1.Addr(), proto.MethodInvoke, req.Marshal()); err != nil {
					t.Fatal(err)
				}
			}
			dp1.Stop() // crash with 3 durable tasks

			startSandboxHost(t, tr, "w1:9000", 0)
			dp2 := New(Config{
				ID:             1,
				Addr:           "dp0:8000",
				Transport:      tr,
				ControlPlanes:  []string{"cp"},
				MetricInterval: time.Hour,
				QueueTimeout:   2 * time.Second,
				AsyncRetries:   10,
				AsyncStore:     db,
				AsyncShards:    tc.nextShards,
			})
			if err := dp2.Start(); err != nil {
				t.Fatal(err)
			}
			defer dp2.Stop()
			waitCounter(t, dp2, "async_recovered", 3)
			pushFunction(t, tr, dp2.Addr(), "f")
			pushEndpoints(t, tr, dp2.Addr(), "f", []core.SandboxID{1}, "w1:9000")
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				if dp2.metrics.Counter("async_completed").Value() >= 3 && dp2.PendingAsync() == 0 {
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			t.Fatalf("recovered tasks not completed+settled: completed=%d pending=%d",
				dp2.metrics.Counter("async_completed").Value(), dp2.PendingAsync())
		})
	}
}

// TestAsyncRecoveredKeyNotReused: after a crash replay, freshly minted
// store keys must never collide with a recovered task's key — a
// collision would overwrite the recovered record (losing it on the next
// crash) or let either task's settlement delete the other's record.
func TestAsyncRecoveredKeyNotReused(t *testing.T) {
	tr := transport.NewInProc()
	startFakeCP(t, tr, "cp")
	db := store.NewMemory()
	// A durable record whose key sequence is exactly where the replica's
	// key counter would mint next — the collision case.
	collidingKey := fmt.Sprintf("1-%d", asyncSeq.Load()+1)
	db.HSet(asyncQueueHash, collidingKey, marshalAsyncTask(asyncTask{function: "f"}))

	dp := New(Config{
		ID:             1,
		Addr:           "dp0:8000",
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: time.Hour,
		QueueTimeout:   20 * time.Millisecond,
		AsyncRetries:   1_000_000, // keep both tasks pending
		AsyncStore:     db,
		AsyncShards:    1,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	waitCounter(t, dp, "async_recovered", 1)
	pushFunction(t, tr, dp.Addr(), "f")
	req := proto.InvokeRequest{Function: "f", Async: true}
	if _, err := tr.Call(context.Background(), dp.Addr(), proto.MethodInvoke, req.Marshal()); err != nil {
		t.Fatal(err)
	}
	// Both the recovered and the new record must coexist durably.
	if got := db.HLen(asyncQueueHash); got != 2 {
		t.Fatalf("store holds %d records, want 2 (new key reused %q)", got, collidingKey)
	}
}

// TestAsyncRecoveryAdmitsOnlyStartupRecords: recovery replays the
// records present when the replica started, so a task accepted while
// recovery is still scanning the store is admitted once, by its accept,
// and runs exactly once. Recovery is held mid-scan by a startup backlog
// larger than its shard's buffer, whose first task parks in the
// cold-start queue until f gets an endpoint.
func TestAsyncRecoveryAdmitsOnlyStartupRecords(t *testing.T) {
	const shards = 2
	shardOf := func(fn string) uint32 { return uint32(core.FunctionHash(fn)) % shards }
	f, g, h := "f", "", ""
	for i := 0; g == "" || h == ""; i++ {
		name := fmt.Sprintf("fn%d", i)
		switch {
		case g == "" && shardOf(name) != shardOf(f):
			g = name
		case h == "" && shardOf(name) == shardOf(f):
			h = name
		}
	}

	// f's backlog sits in the seed hash, which recovery scans first; h's
	// one record in a hash the index lists, which it scans last.
	db := store.NewMemory()
	backlog := seedAsyncQueueCap + 4
	for i := 0; i < backlog; i++ {
		db.HSet(asyncQueueHash, core.AsyncTaskKey(1, uint64(i+1)), marshalAsyncTask(asyncTask{function: f}))
	}
	db.HSet(asyncIndexHash, "late", []byte{1})
	db.HSet("late", core.AsyncTaskKey(1, uint64(backlog+1)), marshalAsyncTask(asyncTask{function: h}))

	tr := transport.NewInProc()
	const dpAddr = "dp0:8000"
	pushEndpoint := func(fn string) error {
		update := proto.EndpointUpdate{Function: fn, Endpoints: []proto.SandboxInfo{{
			ID: 1, Function: fn, Node: 1, Addr: "w1:9000", State: core.SandboxReady,
		}}}
		_, err := tr.Call(context.Background(), dpAddr, proto.MethodUpdateEndpoints, update.Marshal())
		return err
	}
	// The control plane warms the replica's caches during registration,
	// before recovery starts: all three functions, an endpoint for h only.
	cpLn, err := tr.Listen("cp", func(method string, _ []byte) ([]byte, error) {
		if method != proto.MethodRegisterDataPlane {
			return nil, nil
		}
		var list proto.FunctionList
		for _, name := range []string{f, g, h} {
			list.Functions = append(list.Functions, core.Function{Name: name, Image: "img", Port: 80, Scaling: core.DefaultScalingConfig()})
		}
		if _, err := tr.Call(context.Background(), dpAddr, proto.MethodAddFunction, list.Marshal()); err != nil {
			return nil, err
		}
		return nil, pushEndpoint(h)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cpLn.Close()
	var mu sync.Mutex
	runs := map[string]int{}
	hostLn, err := tr.Listen("w1:9000", func(_ string, payload []byte) ([]byte, error) {
		req, err := proto.UnmarshalInvokeSandboxRequest(payload)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		runs[req.Function]++
		mu.Unlock()
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hostLn.Close()
	ran := func(fn string) int {
		mu.Lock()
		defer mu.Unlock()
		return runs[fn]
	}

	dp := New(Config{
		ID:             1,
		Addr:           dpAddr,
		Transport:      tr,
		ControlPlanes:  []string{"cp"},
		MetricInterval: time.Hour,
		QueueTimeout:   30 * time.Second,
		AsyncStore:     db,
		AsyncShards:    shards,
	})
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	recovered := func() int64 { return dp.metrics.Counter("async_recovered").Value() }
	wait := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (recovered %d, f ran %d, g ran %d, h ran %d)",
					what, recovered(), ran(f), ran(g), ran(h))
			}
			time.Sleep(time.Millisecond)
		}
	}

	// One f task parked, f's shard full: recovery is blocked on f's
	// next record and has not reached g's hash.
	wait("recovery to block on f's full shard", func() bool {
		return recovered() == seedAsyncQueueCap+1 && dp.asyncShardFor(f).pending() == seedAsyncQueueCap
	})
	// g's accept lands in g's shard hash mid-scan; its task parks in the
	// cold-start queue, so its record stays unsettled while recovery
	// scans that hash.
	req := proto.InvokeRequest{Function: g, Async: true}
	if _, err := tr.Call(context.Background(), dpAddr, proto.MethodInvoke, req.Marshal()); err != nil {
		t.Fatal(err)
	}
	wait("g's task to park", func() bool { return dp.QueueDepth(g) == 1 })
	if err := pushEndpoint(f); err != nil {
		t.Fatal(err)
	}
	// h's record is recovered last, so once h has run, recovery has
	// scanned every hash.
	wait("h to run", func() bool { return ran(h) == 1 })
	if got, want := recovered(), int64(backlog+1); got != want {
		t.Fatalf("recovered %d tasks, want the %d present at start", got, want)
	}
	if err := pushEndpoint(g); err != nil {
		t.Fatal(err)
	}
	wait("every task to settle", func() bool {
		return dp.metrics.Counter("async_completed").Value() == int64(backlog+2) && dp.PendingAsync() == 0
	})
	if ran(f) != backlog || ran(g) != 1 || ran(h) != 1 {
		t.Fatalf("runs: f %d (want %d), g %d, h %d (want 1 each)", ran(f), backlog, ran(g), ran(h))
	}
}
