package controlplane

import (
	"fmt"
	"time"

	"dirigent/internal/core"
	"dirigent/internal/proto"
)

// Relay-tier ingest: the control plane side of the hierarchical liveness
// design (paper §5.2.3 runs the control plane against 5000 worker nodes).
// Workers report to relays over the ordinary per-worker methods; each
// relay ships one WorkerHeartbeatBatch per flush period, so the control
// plane absorbs O(relays) liveness RPCs per period instead of O(workers).
// Liveness is still judged per worker — every sample in a batch is
// stamped with the batch's CP-side arrival time, and the health monitor
// compares those stamps against HeartbeatTimeout exactly as it does for
// direct heartbeats. The relay itself is a tracked liveness domain: a
// relay that stops batching is a correlated mass-timeout candidate whose
// members are re-verified individually (see HealthSweep in workers.go).

// relayState is one relay's freshness entry. Mutable fields are guarded
// by ControlPlane.relayMu; the set is tens of entries at most.
type relayState struct {
	lastHB time.Time
}

// relayCount returns the number of relays whose batches are current.
func (cp *ControlPlane) relayCount() int {
	cp.relayMu.Lock()
	defer cp.relayMu.Unlock()
	return len(cp.relays)
}

// noteRelayBatch refreshes (or admits) a relay's freshness entry on batch
// arrival. A relay the health monitor declared silent re-admits itself
// with its next batch — no registration handshake, mirroring how a
// worker's late heartbeat revives it.
func (cp *ControlPlane) noteRelayBatch(relay string, now time.Time) {
	cp.relayMu.Lock()
	r, ok := cp.relays[relay]
	if !ok {
		r = &relayState{}
		cp.relays[relay] = r
	}
	r.lastHB = now
	n := len(cp.relays)
	cp.relayMu.Unlock()
	cp.gRelayCount.Set(int64(n))
}

// sweepRelays drops relays whose last batch is older than RelayTimeout,
// returning the silent ones. The caller (HealthSweep) responds with a
// full registry scan: the silent relay's members either have fresh stamps
// (they failed over to another relay or to direct mode — no action) or
// stale ones (the correlated mass-timeout the relay's silence predicted).
func (cp *ControlPlane) sweepRelays(now time.Time) []string {
	cp.relayMu.Lock()
	var silent []string
	for id, r := range cp.relays {
		if now.Sub(r.lastHB) > cp.cfg.RelayTimeout {
			silent = append(silent, id)
			delete(cp.relays, id)
		}
	}
	n := len(cp.relays)
	cp.relayMu.Unlock()
	cp.gRelayCount.Set(int64(n))
	if len(silent) > 0 {
		cp.cRelayFailures.Add(int64(len(silent)))
	}
	return silent
}

// addSuspects queues relay-reported missing workers for the fast health
// sweeps. A suspect is a hint, never a verdict: the sweep fails a suspect
// only once the worker's own CP-side stamp exceeds HeartbeatTimeout, so a
// worker that failed over to another relay (fresh stamp) is cleared.
func (cp *ControlPlane) addSuspects(ids []core.NodeID) {
	cp.relayMu.Lock()
	for _, id := range ids {
		cp.suspects[id] = struct{}{}
	}
	cp.relayMu.Unlock()
}

// takeSuspects drains the suspect set for one sweep; the sweep re-queues
// the ones that are quiet but not yet past the timeout.
func (cp *ControlPlane) takeSuspects() []core.NodeID {
	cp.relayMu.Lock()
	defer cp.relayMu.Unlock()
	if len(cp.suspects) == 0 {
		return nil
	}
	out := make([]core.NodeID, 0, len(cp.suspects))
	for id := range cp.suspects {
		out = append(out, id)
	}
	cp.suspects = make(map[core.NodeID]struct{})
	return out
}

// handleWorkerHeartbeatBatch ingests one relay flush. Samples are grouped
// by registry shard so the batch takes each stripe's read lock once
// instead of once per worker, and a batch touching one shard's workers
// never serializes batches (or direct heartbeats) on other shards — the
// same striping contract as the singleton path, amortized. Each worker's
// state is then stamped under its own mutex with the batch's CP-side
// arrival time. Unknown node IDs are ignored exactly like the singleton
// handler ignores them: the worker must (re-)register first, so a stale
// relay can never re-inflate fleet_size.
func (cp *ControlPlane) handleWorkerHeartbeatBatch(payload []byte) ([]byte, error) {
	batch, err := proto.UnmarshalWorkerHeartbeatBatch(payload)
	if err != nil {
		return nil, err
	}
	cp.cHBBatchRPCs.Inc()
	cp.mHBBatchSize.ObserveMs(float64(len(batch.Beats)))
	now := cp.clk.Now()
	nshards := uint32(len(cp.wshards))
	groups := make([][]int, nshards)
	for i := range batch.Beats {
		si := uint32(batch.Beats[i].Node) % nshards
		groups[si] = append(groups[si], i)
	}
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		ws := cp.wshards[si]
		states := make([]*workerState, len(g))
		cp.rlockWorkerShardIngest(ws)
		for j, bi := range g {
			states[j] = ws.workers[batch.Beats[bi].Node]
		}
		ws.mu.RUnlock()
		// Stamp outside the shard lock: per-worker mutexes are enough,
		// and a slow stamp loop must not block registrations behind the
		// stripe's write lock.
		for j, bi := range g {
			w := states[j]
			if w == nil {
				continue
			}
			w.mu.Lock()
			w.lastHB = now
			w.util = batch.Beats[bi].Util
			w.healthy = true
			w.via = batch.Relay
			w.failedAt = time.Time{}
			w.mu.Unlock()
		}
	}
	cp.noteRelayBatch(batch.Relay, now)
	if len(batch.Missing) > 0 {
		cp.addSuspects(batch.Missing)
	}
	return nil, nil
}

// handleRegisterWorkerBatch ingests a relay's group-committed
// registration storm. Every record is persisted before any registry
// insert — the same persist-then-insert order as the singleton handler,
// which is what lets rebuildWorkers guarantee that a registration racing
// a recovery is never silently dropped. Inserts are then grouped per
// shard, one write-lock acquisition per touched stripe.
func (cp *ControlPlane) handleRegisterWorkerBatch(payload []byte) ([]byte, error) {
	batch, err := proto.UnmarshalRegisterWorkerBatch(payload)
	if err != nil {
		return nil, err
	}
	cp.mRegBatchSize.ObserveMs(float64(len(batch.Workers)))
	for i := range batch.Workers {
		w := &batch.Workers[i]
		if err := cp.db.HSet(hashWorkers, w.Name, core.MarshalWorkerNode(w)); err != nil {
			return nil, fmt.Errorf("register worker batch (%s): persist %s: %w", batch.Relay, w.Name, err)
		}
	}
	now := cp.clk.Now()
	nshards := uint32(len(cp.wshards))
	groups := make([][]int, nshards)
	for i := range batch.Workers {
		si := uint32(batch.Workers[i].ID) % nshards
		groups[si] = append(groups[si], i)
	}
	var added int64
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		ws := cp.wshards[si]
		cp.lockWorkerShardIngest(ws)
		for _, wi := range g {
			w := batch.Workers[wi]
			if _, existed := ws.workers[w.ID]; !existed {
				added++
			}
			ws.workers[w.ID] = &workerState{
				node:    w,
				addr:    workerAddr(&w),
				lastHB:  now,
				healthy: true,
				via:     batch.Relay,
			}
		}
		ws.mu.Unlock()
	}
	if added != 0 {
		cp.workerCount.Add(added)
		cp.gFleetSize.Set(cp.workerCount.Load())
	}
	cp.metrics.Counter("workers_registered").Add(int64(len(batch.Workers)))
	return nil, nil
}
