// Command perfbench is the repository's benchmark: it assembles the
// deployment-shaped stack in one process, drives it with an open-loop,
// seeded load and prints end-to-end metrics (untraced run) or per-layer
// metrics (traced run).
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload cold-churn --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Earlier lines carry the
// environment block (commit, tree hash, nproc, GOMAXPROCS, Go version,
// compression factor, workload, seed), every metric by name and unit,
// the checks, and in a traced run the per-hop breakdown of the warm and
// the cold path. A failed check prints correct=false and exits 1.
//
// # Stack
//
// Three control plane replicas on the replicated Raft log, each with its
// own AOF store opened with wal.FsyncGroup; three data planes sharing one
// durable async-queue store; eight workers running the containerd model;
// the front end polling the control plane for data plane membership. All
// talk over transport.NewTCP on 127.0.0.1 and are built from the same
// public constructors as the binaries under cmd/, with the binaries'
// defaults (Raft 50 ms heartbeat and 150-300 ms election timeout,
// follower reads on, group fsync). One exception: every window on the
// invoke and scale path is divided by a single compression factor C = 25:
// sandbox LatencyScale, autoscale period (80 ms), data plane metric
// period (10 ms), the Knative stable, panic and scale-to-zero windows,
// the post-election no-downscale window and trace time. Liveness
// settings keep their defaults because no workload injects faults.
//
// The user function is the benchmark's own worker.ImageRegistry handler
// (execLog.serve): it sleeps the requested time and answers with the
// request ID and the time it actually ran.
//
// # Workloads
//
// Both are open loops whose arrivals are a Poisson process conditioned
// on its count: every seed offers the same number of invocations, at
// different times.
//
// warm-steady: 16 functions pinned at 8 warm sandboxes each (MinScale =
// MaxScale = 8), 2 ms exec, Poisson arrivals at 2000/s. It loads the warm
// hot path (front end, data plane pick, transport, worker invoke) and
// bypasses control plane scheduling: no sandbox is created or killed
// after set-up. Predicted no-change: a change to the control plane's
// scheduling, placement, metric ingest or readiness path leaves its
// sched_p50_ms, goodput_rps and cpu_cores within their
// bounds. Check: at most 1% of sync invocations wait in the cold queue.
//
// cold-churn: 600 functions scaling from zero, visited in a seeded
// round-robin at 100/s (Poisson gaps), so each comes back every 6 s,
// after its sandbox was torn down; every 10th invocation is async. Every
// invocation is a cold start and every sandbox is both created and
// killed: the sandbox churn of the paper's Fig. 7. It loads the data
// plane cold queue, control plane metric ingest (600 functions x 3 data
// planes x 100 reports/s, against a few thousand entries/s on
// warm-steady), the autoscale sweep, placement, worker create and kill,
// readiness fan-out and durable async accepts; set-up pays for 600
// Raft-committed registrations. It bypasses the warm pick: no request
// finds a free warm sandbox. Predicted no-change: a change to the warm
// pick or the front end's steering moves none of its figures beyond
// noise. Check: at least 99% of sync invocations are cold.
//
// A third workload, azure-mix (a trace.NewAzureLike population replayed
// at C = 25, every 5th invocation async), was built and dropped: its
// figures were not steady enough to gate a change on (see the findings
// below). Durable async accepts, the layer it was to add, are loaded by
// cold-churn's async share instead.
//
// # Metrics
//
// sched is the client-observed latency, timed from the request's
// scheduled send time (or from its send, when the generator issued it up
// to 1 ms early; see lookahead), minus the time the function ran.
// End-to-end metrics come from the untraced window. The window is cut
// into 0.5 s parts and the host's CPU steal (/proc/stat) is sampled at
// each part edge; sched_p50_ms is the p50 over the invocations of the
// parts in which at most 2% of the host's CPU time was stolen, topped
// up from the least-steal parts to at least three parts and 1000
// invocations (on warm-steady, three parts when steal never lets up;
// on cold-churn, whose parts hold about 45 invocations, at least 22). So
// neither a stall nor a stretch in which the hypervisor runs other
// tenants moves the figure unless it lasts the whole run. Every part's
// steal and p50 is printed on the "info parts" line.
// goodput_rps counts successful sync invocations within the workload's
// limit (10 ms warm-steady, 250 ms cold-churn);
// ok_frac is 1 minus failed, refused or lost operations over attempted,
// sync and async; cpu_cores is process CPU seconds per wall second;
// setup_s the median of five complete set-ups (stack start,
// registration, pinned sandboxes ready). Registration runs from eight
// concurrent clients and ends with one more registration, alone, of the
// last function, whose push carries the full list to every data plane:
// this repairs the registration race (see the findings) before the load
// starts. The functions missing, before the repair, from the last list
// each data plane handled are printed with each set-up and reported as
// controlplane.register_lost_functions. Memory is reported per layer as
// runtime.rss_peak_mb, the peak resident set after the set-ups' garbage
// has been collected and returned to the OS. The client's tail and
// per-function latencies (client.sched_p99_ms; client.fn_sched_p50_ms
// and client.fn_sched_p90_ms, percentiles across functions of each
// function's mean sched) are also reported per layer, over the traced
// run's untraced window.
//
// The traced run measures a half-length untraced window, then a traced
// one on the same stack; trace.overhead_p50_ms is the difference of
// their sched p50s. Tracing wraps the transport.Transport given to each
// component: every Call and every handler becomes a span, decoded from
// the public proto messages. Invocations are joined by the request ID in
// their payload; cold starts by data plane and function
// (ScalingMetricReport)
// and by sandbox (CreateSandboxBatch, SandboxEventBatch,
// EndpointUpdateBatch). A cold request's sched splits into generator
// lateness, front-end self time, the LB to DP hop, metric wait, sweep
// wait, worker create, fan-out, dispatch, the DP to worker hop, worker
// self time and the data plane's tail; these telescope, so their means
// add up to the joined requests' mean sched. The check requires that
// at least 90% of the path's requests joined and that the sum is within
// 10% of the mean sched of all of them, on cold-churn (cold path) and
// warm-steady (warm path).
//
// A traced result carries every per-layer metric. One of a path the
// workload does not load (on warm-steady the cold path, creates and
// async accepts; on cold-churn the warm pick) is written as 0 and
// printed as n/a; any other metric without samples fails a check.
//
// Which per-layer metric should move which end-to-end one: the
// front-end, transport-hop, warm-self and worker-self times move
// sched_p50_ms on warm-steady; cold wait, metric wait, sweep wait,
// worker create, fan-out and dispatch move it on cold-churn; RPCs and
// bytes per invocation, metric entries and ingest busy time, ready and
// endpoint-update busy time, creates per cold start, kills per second
// and the GC's CPU share move cpu_cores (the control plane ones on
// cold-churn, with about zero effect on warm-steady); register latency,
// Raft appends per second, entries per round and the stores' fsync
// rounds move setup_s; front-end failovers, failure detections and
// leader changes move ok_frac. loadgen.late_p99_ms moves nothing: it
// checks the generator kept its schedule.
//
// # Findings recorded while building it (2-vCPU VM)
//
//   - In-process Raft timings: with the 8-16 ms election timeouts
//     cluster.New hard-codes, a prototype saw 2-12 leader changes per
//     20 s of no-fault load and one run failed 10 invocations. With the
//     binaries' 150-300 ms timeouts used here, no run has shown a leader
//     change after set-up.
//   - Async completion delay is not steady: submit to function start
//     varied 45-95 ms between runs of a prototype, because each async
//     queue shard dispatches one full synchronous invocation at a time.
//     It is reported per layer (dataplane.async_sched_p50_ms) only.
//   - Go timers wake an idle process with millisecond granularity. A
//     2 ms sleep in the function overshot by 0.6-0.8 ms, and a generator
//     sleeping to each due time ran 0.4-0.6 ms late at the median; the
//     two made up three quarters of the warm path's 1.4 ms sched and
//     varied with how busy the process was. sched therefore subtracts
//     the function's actual run time, and the generator issues ops up to
//     1 ms early (timed from their send); warm sched p50 dropped to
//     0.3-0.4 ms, almost all of it the two transport hops. Blocking in
//     nanosleep instead made the tails worse: a goroutine in a raw
//     syscall holds its P until sysmon retakes it.
//   - Host CPU steal sets the warm path's latency. Over ten seeds, the
//     warm-steady sched p99 ranged 0.8-13 ms and p90 0.5-4.1 ms, and the
//     whole-window p50 0.31-0.70 ms; runs with 0.4-1% steal read p99
//     0.9-1.2 ms, runs with 9.5% steal 3.3-5.1 ms. Within a run steal
//     comes and goes in stretches of a second or more, and a 3 s part
//     with 14% steal read a p50 of 0.44 ms next to parts at 0.32 ms.
//     Hence the quiet-part p50 for sched_p50_ms; the tails, whole-window
//     figures, are reported per layer (client.sched_p99_ms,
//     client.fn_sched_*) and not gated on. The quiet parts help only
//     when steal comes and goes, and the shorter the parts the more
//     often they find a quiet moment: cut into 1.5 s parts, ten runs at
//     1-21% steal read sched_p50_ms with IQR/median 0.26, and two sets
//     of ten runs of the same code 0.25 and 0.35, over the 0.25 bound;
//     cut into 0.5 s parts, the same ten runs read 0.10. When steal
//     never lets up, no part is quiet: a run with 12-40% steal in every
//     0.5 s part read 0.52 ms against 0.31-0.36 ms in its neighbours.
//     A comparison of warm-path latency on this kind of host holds only
//     when both sides ran with little steal; every run prints its
//     steal.
//   - Memory is bimodal on cold-churn: between runs of the same code the
//     live heap settles at 18-19 or 26-27 MB (resident set 49 or 64 MB),
//     with one set-up as with five. A heap profile diff puts the
//     difference in autoscaler.(*FunctionAutoscaler).Record: the
//     per-function sample buffers (600 functions x 3 data planes x 100
//     reports/s over the 2.4 s stable window) whose slice capacity
//     doubling depends on timing. No memory figure is gated on for that
//     reason.
//   - Host steal moves setup_s too. Registering cold-churn's 600
//     functions takes about 2.1 CPU seconds in 1.2-1.5 s of wall time
//     (each registration pushes the whole function list to every data
//     plane), so set-up needs both CPUs and slows with whatever the
//     hypervisor takes: over ten seeds its median set-up ranged 1.2-3.1
//     s (IQR/median 0.38), the slow runs in stretches of 25-33% steal,
//     and over ten others with 0-14% steal 1.1-1.7 s (0.19). Five
//     set-ups per run take out one slow set-up, not a slow host.
//   - An emulated 20% steal (a SCHED_FIFO busy loop taking each CPU for
//     2 ms every 10 ms) raised warm-steady's p50 by 30-40% and its p10
//     and p25 by 20-27%; the traced breakdown put the rise in the two
//     transport hops (p50 0.12 to 0.17 ms each) and generator lateness.
//     Every request crosses several cross-thread wake-ups, so no
//     percentile of the warm path escapes steal; only the choice of
//     quiet parts does, and only when steal comes and goes.
//   - Registration race: with eight concurrent registration clients, a
//     data plane now and then ends up without a function the control
//     plane acknowledged ("unknown function" on every invocation of it;
//     3-5 failed invocations in about one of ten cold-churn runs). Each
//     registration pushes the full function list to every data plane, a
//     data plane replaces its list with whatever push arrives, and a push
//     built before a concurrent registration can land after it: in
//     cold-churn's set-up about one push in six lands after a newer
//     one, and the one a data plane handles last is rarely stale. Failed
//     invocations that come and go between runs of the same code would
//     make ok_frac useless as a gate, so set-up repairs the damage with
//     one final registration and reports what it repaired
//     (controlplane.register_lost_functions, and on each set-up line);
//     the defect itself is in the control plane and stays there.
//   - azure-mix across seeds: population draws differ in offered load by
//     4x (64-282 invocations/s at C = 25); with the population fixed,
//     its cold share sits near 50%, so its sched p50 jumps between the
//     warm and the cold mode (2.4-38 ms) and its p99 between 165 and
//     480 ms over five seeds.
package main
