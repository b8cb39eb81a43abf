// Command schedbench is the repository's benchmark: one process that
// measures the three paths users run — a scheduld HTTP request, a batch
// through internal/pipeline, and a regeneration of the paper's tables — end
// to end, and, in a separate traced run, layer by layer. BENCHMARK.json at
// the repository root declares its workloads and metrics; this file explains
// them.
//
// # Running
//
// From the repository root:
//
//	bash cmd/schedbench/run.sh -workload serve-cold -seed 1 -seconds 10 -trace 0
//	bash cmd/schedbench/run.sh -workload batch-longtrip -seed 1 -trace 1 -trace-out trace.json
//	bash cmd/schedbench/run.sh -seed 1     # every workload, one child process each
//
// run.sh builds the command into .bench_build/ (build cache and temporary
// files included) and runs it from the repository root, whose
// testdata/kernels and REPORT.md it reads. The directory is a module of its
// own that replaces the doacross module with the checkout around it, so the
// main module's build and tests never see it; run its tests with
// `go test ./...` from cmd/schedbench.
//
// Each run prints the Go version, nproc, GOMAXPROCS (pinned to nproc) and the
// seed, every metric with its unit, and as its last line a JSON object with
// the keys correct, attempted, failed and metrics. It exits non-zero when any
// op or check failed. The measured window lasts -seconds; clients are
// closed-loop, because scheduld's callers (server.Client, the CLIs) wait for
// each reply, and never outnumber nproc.
//
// # Workloads
//
//	paper-tables    One op regenerates Tables 1-3 through tables.RunParallelWith
//	                over the five perfect suites: 74 DOACROSS loops x 4 paper
//	                machines at n=100, nproc workers, a fresh cache per op. The
//	                suites are fixed, so the seed changes nothing. Compilation,
//	                both schedulers and check.Verify do most of the work and
//	                simulation is cheap: the control for any simulator change.
//	batch-longtrip  One op is a pipeline.Run over the 20 loops of
//	                testdata/kernels (multi-loop files split), each requested at
//	                two trip counts the seed draws from [10000, 40000], on the
//	                4-issue #FU=1 machine, nproc workers, a fresh cache per op.
//	                Each loop compiles and schedules once but simulates twice at
//	                O(n) cost, so simulation is most of the time: this is where
//	                steady-state extrapolation or a lazy list baseline would
//	                show, with almost no HTTP, cache or compile work.
//	serve-cold      One op is a POST /v1/schedule to an in-process scheduld
//	                (server.New with CacheCap 1024, behind httptest on
//	                loopback) from nproc clients. Every request carries a
//	                distinct seeded loopgen source (shapes cycle, 1-6
//	                statements, deduplicated by text) at n=100, so it runs
//	                compile -> schedule -> verify -> simulate and writes the
//	                bounded cache, with evictions: the write side of the cache.
//	serve-warm      Untimed preparation: a first daemon serves the hot set (the
//	                kernels plus loopgen sources, 500 distinct scheduling
//	                problems, each at n=100 and n=1000) into a temporary disk
//	                tier and shuts down. Set-up is the restart, server.New on
//	                that tier, which re-verifies every entry in LoadDisk. Then
//	                nproc clients draw requests Zipf(1.1) from the hot set; the
//	                hot set and its popularity ranks are fixed, because a few
//	                ranks draw most requests, and the seed draws the sequence:
//	                every response is a memory hit, and compile, schedule and
//	                simulate are bypassed, so the HTTP edge, JSON, admission,
//	                the flight group and cache reads dominate: the read side of
//	                the cache. Disk writes stay in the untimed preparation,
//	                because fsync measures the host, not the program.
//
// Batch workloads run one untimed warm-up op before the window. Every
// workload keeps the daemon's default circuit breaker (see Defects).
//
// # End-to-end metrics
//
// Measured with tracing off. An op is defined per workload above; the bound
// is the share of the parent's median by which a metric may worsen before a
// change counts as a regression (BENCHMARK.json is authoritative).
//
//	setup_s        s       median over set-ups repeated at least 7 times and for 1 s  +25%
//	ops_per_s      op/s    ops completed per second                                    -25%
//	op_p50_ms      ms      median op latency                                           +25%
//	op_p90_ms      ms      90th-percentile op latency                                  +25%
//	allocs_per_op  allocs  heap allocations per op, whole process (clients included)   +2%
//	peak_rss_mb    MiB     peak resident set, sampled every 10 ms                      +15%
//
// The window is cut into 2 s slices; ops_per_s, the latency percentiles and
// peak_rss_mb are computed per slice and reported as the median over the
// slices, so that contention from other tenants of the host lasting under
// half the window does not move them. Longer phases do. On the 2-vCPU
// machine the benchmark was sized on, throughput drifted by up to 1.6x over
// 20-30 s inside one process. Ten 25 s runs on ten seeds spread (quartile
// distance over median) by 9-18% in the timing metrics of paper-tables,
// batch-longtrip and serve-warm and by 6-7% on serve-cold, against at most
// 0.2% for allocs_per_op and 3.4% for peak_rss_mb. The medians of three such
// sets, taken within an hour, drifted by up to 28% as the host's load
// changed, and a program-independent reference kernel timed beside the
// window did not track that drift. The timing bounds are therefore the
// widest allowed.
//
// op_p99_ms, the op and slice counts and the served simulated cycles per op
// are printed for diagnosis but not gated. Failed and refused ops, and
// results served degraded, count in "failed" rather than as metrics: any of
// them makes the run incorrect. After the window, 64 seeded ops are re-derived through the
// public facade: the loop is recompiled and rescheduled, the served
// sync_time must equal the recomputed simulation, and executing the schedule
// on a seeded store must leave the same memory as running the loop
// sequentially. paper-tables must also reproduce the Table 3 committed in
// REPORT.md (e.g. TRACK 91.40%, QCD 34.95% at 2-issue #FU=1) on every op.
//
// # Per-layer metrics
//
// A run with -trace 1 measures half its window untraced and half traced, and
// reports the per-layer metrics of the traced half plus the tracing overhead
// (trace.overhead_ratio, one minus traced over untraced ops_per_s). Every
// number is measured from outside the layers:
//
//   - <stage>.us_per_op and <stage>.calls_per_op are deltas of the pipeline
//     registry (pipeline.Metrics.Stats) over the window, from its exact
//     Count and Total sums, never bucket quantiles. Stage names are the
//     pipeline's, as in doacross_stage_duration_seconds{stage=...}.
//   - The *_us splits and the loop sizes (instructions, and synchronization
//     pairs as graph.sync_arcs_per_loop) come from a replay of 256 seeded
//     problems of the workload that calls core.Scratch.List and
//     SyncWithOptions, check.Verify, check.VerifyTiming and sim.Time directly.
//   - server.self_us_per_op is the time inside the benchmark's middleware
//     around server.Handler that no stage covers; http.us_per_op is the
//     client round trip minus the handler time; pipeline.self_us_per_op is
//     batch latency x workers minus the stages. These remainders are the
//     unmeasured time a later in-program tracing change can split further.
//   - simulate.iterations_per_op is simulate.calls_per_op x 2 schedules x the
//     mean trip count, exact because every workload either shares one trip
//     count or simulates every request fresh.
//
// Which module each layer is, which end-to-end metric it should move, and
// the workload where it shows (the control in parentheses):
//
//	parse ifconvert analyze     lang, passes, dep,     op_p50_ms, ops_per_s    serve-cold, paper-tables
//	syncinsert codegen graph    syncop, tac, dfg                               (serve-warm: 0 calls)
//	  <pass>.us_per_op <pass>.calls_per_op codegen.instrs_per_loop graph.sync_arcs_per_loop analyze.conservative_ratio
//	schedule                    core backends          ops_per_s               paper-tables, serve-cold (serve-warm)
//	  schedule.us_per_op schedule.calls_per_op schedule.list_us schedule.sync_us
//	check                       check                  ops_per_s               paper-tables (serve-warm)
//	  check.us_per_op check.calls_per_op check.verify_us check.verify_timing_us check.rejected
//	simulate                    sim                    ops_per_s, op_p50_ms    batch-longtrip (paper-tables, serve-cold)
//	  simulate.us_per_op simulate.calls_per_op simulate.iterations_per_op simulate.list_us simulate.sync_us
//	  simulate.cycles_per_op simulate.busy_share
//	cache                       pipeline.Cache         op_p50_ms, peak_rss_mb  serve-warm = 1, serve-cold ~ 0
//	  cache.hit_ratio cache.evictions_per_op
//	disk                        DiskStore, LoadDisk    setup_s                 serve-warm only
//	  disk.load_us_per_entry disk.entries_loaded
//	server                      server handler         op_p50_ms, op_p90_ms    serve-warm (absent from batch)
//	  server.self_us_per_op server.coalesced_ratio
//	http                        net/http loopback      op_p50_ms               serve-warm
//	  http.us_per_op
//	pipeline                    pipeline worker pool   ops_per_s               paper-tables, batch-longtrip
//	  pipeline.self_us_per_op pipeline.fallbacks pipeline.panics pipeline.timeouts
//	runtime                     Go GC                  allocs_per_op, peak_rss_mb, op_p90_ms   serve-cold
//	  runtime.gc_cpu_share runtime.alloc_bytes_per_op
//
// simulate.cycles_per_op, the simulated time of the served schedules per op,
// is the paper's own measure (Table 2's T): it changes only when schedules
// do.
//
// # Reading the trace
//
// With -trace 1 -trace-out FILE the spans, held in memory (the latest 65536),
// are written once at exit as a Chrome trace; open it in ui.perfetto.dev. Each
// op is a span named after the workload with its op index; under a serve op
// sits the handler span, joined through the X-Request-Id "op-<index>" the
// client sent; each replayed problem is a "replay" span with one child per
// direct call (schedule.list, schedule.sync, check.verify, simulate.list,
// simulate.sync, check.verify_timing).
//
// # Defects found while sizing the workloads
//
// Both are left to later changes; the benchmark works around them.
//
//   - A default scheduld (-cache 0) has an unbounded cache that keeps three
//     entries, about 85 KiB resident, per distinct loop: 3 000 distinct cold
//     requests grew RSS from 10 to 259 MiB, where CacheCap 1024 held it at
//     75 MiB, so a long cold stream exhausts memory. serve-cold therefore runs
//     with CacheCap 1024.
//   - server.Config{BreakerThreshold: -1}, documented as "breaker disabled",
//     panics on every served request: newBreakerSet returns nil for it, and
//     the handler's recordBreaker reads s.breakers.opens through that nil
//     pointer (internal/server/server.go:382). The workloads keep the default
//     breaker.
package main
