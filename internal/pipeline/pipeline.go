// Package pipeline is the batch scheduling service over many DOACROSS
// loops: it fans compile → schedule (list/sync/best) → simulate out across a
// worker pool, deduplicates repeated scheduling problems through a sharded
// content-addressed schedule cache (key = DFG fingerprint + machine
// configuration + scheduler options, built in internal/dfg), and records
// per-stage latency and cache traffic in an embedded metrics registry.
//
// Results are returned in request order and are independent of the worker
// count: every per-loop computation is a pure function of the loop source
// and the options, and cached values are bound first-writer-wins, so a batch
// run with 1 worker and with 8 workers yields identical numbers.
//
// The service is hardened against misbehaving inputs and stages:
//
//   - Cancellation: RunContext threads a context through the worker pool,
//     checked between the compile, schedule and simulate stages;
//     Options.Deadline bounds the batch and Options.RequestTimeout each
//     request. A cancelled batch still returns every result in request
//     order, with per-request errors on the requests that were cut off.
//   - Panic isolation: a panic in any stage (or compilation pass) is
//     recovered into a structured diagnostic carrying the stage, the request
//     name and a stack digest; one poisoned loop never kills the batch.
//   - Graceful degradation: when the synchronization-aware scheduler fails —
//     an error, a panic, or a schedule rejected by Validate — the request is
//     served by the program-order list schedule, which the paper guarantees
//     is always a correct (if slower) answer. The fallback is verified with
//     Validate before it is returned and the result is flagged Degraded with
//     the reason.
//   - Independent verification: every freshly built schedule — organic or
//     fallback — passes through internal/check before it is served or
//     published to the cache. The checker re-derives the dependence edges
//     from the compiled code and re-checks the paper's synchronization
//     conditions, resource feasibility and deadlock freedom without sharing
//     code with the schedulers; cache hits therefore only ever serve
//     schedules that already passed. A rejected schedule degrades onto the
//     fallback exactly like a scheduler panic; fresh compilations
//     additionally run the synchronization linter (LoopResult.Lint).
//   - Fault injection: Options.FaultHook (see internal/faults) is probed at
//     every stage boundary so chaos tests can drive each failure path
//     deterministically.
package pipeline

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"doacross/internal/check"
	"doacross/internal/core"
	"doacross/internal/dep"
	"doacross/internal/dfg"
	"doacross/internal/diag"
	"doacross/internal/dlx"
	"doacross/internal/lang"
	"doacross/internal/model"
	"doacross/internal/obs"
	"doacross/internal/passes"
	"doacross/internal/sim"
	"doacross/internal/syncop"
	"doacross/internal/tac"
)

// MaxTrip is the largest trip count a request may ask for. It bounds the
// simulator's worst case (a schedule without a short steady state is walked
// iteration by iteration) and keeps the closed-form stall sums, which grow
// with n², far from integer overflow.
const MaxTrip = 1 << 24

// Request is one loop to schedule. Exactly one of Source and Loop must be
// set; Loop wins when both are.
type Request struct {
	// Name labels the loop in results (defaults to "loop<index>").
	Name string
	// Source is unparsed loop source.
	Source string
	// Loop is an already parsed loop.
	Loop *lang.Loop
	// N overrides Options.N for this request (0 = use the batch default).
	// Requests above MaxTrip are rejected.
	N int
	// ID is an optional correlation ID (e.g. the daemon's X-Request-Id). It
	// is attached to the request's observer span so service logs, span
	// trees and flight-recorder dumps can be joined on it; it never enters
	// cache or coalescing keys.
	ID string
}

// name returns the request's label in results and fault probes.
func (r Request) name(idx int) string {
	if r.Name != "" {
		return r.Name
	}
	return fmt.Sprintf("loop%d", idx)
}

// Options configures a batch run. The zero value schedules on the paper's
// 4-issue machine with the program-order list baseline, n=100, GOMAXPROCS
// workers, no cache, no deadline and a private metrics registry.
type Options struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// Machines are the configurations to schedule each loop on; empty means
	// the paper's 4-issue(#FU=1) machine.
	Machines []dlx.Config
	// N is the default trip count for simulation (0 = 100, the paper's).
	N int
	// Window is the signal hardware window passed to the simulator
	// (0 = unbounded).
	Window int
	// Baseline selects the list-scheduling priority.
	Baseline core.ListPriority
	// Sync holds the ablation knobs of the synchronization-aware scheduler.
	Sync core.SyncOptions
	// Best additionally builds the never-degrades Best schedule.
	Best bool
	// Compile configures the compilation pass pipeline (optional unroll/
	// migrate passes, if-conversion, flow-only synchronization, artifact
	// dumps). Tracer is overridden: per-pass latencies always land in the
	// batch's metrics registry.
	//
	// Compile.Backend additionally selects the scheduling backend that
	// serves the synchronization-aware slot of every result ("" = "sync",
	// the paper's heuristic; see passes.BackendNames). The "exact" backend
	// evaluates its objective at each request's trip count unless
	// Compile.Exact.N pins one, and its budget-exhausted (non-optimal)
	// results are never published to the schedule cache.
	Compile passes.Options
	// Cache, when non-nil, memoizes all three stages across loops and
	// batches: compilations by source text, schedules by DFG fingerprint +
	// machine + scheduler options, and timings additionally by trip count
	// and window. Sweeping trip counts or machines over a fixed corpus
	// recompiles and reschedules nothing. Degraded (fallback) results are
	// never published to the cache.
	Cache *Cache
	// Disk, when non-nil, is the crash-safe persistent tier under Cache:
	// every fresh, verified, non-degraded, cacheable result is also written
	// through to it (atomic rename + checksum, see DiskStore), and LoadDisk
	// restores it into a Cache on startup so restarts come up warm. Disk
	// write failures never fail a request — they are counted by the store.
	// Requires Cache to be useful, but is consulted on no hot path: reads
	// happen only in LoadDisk.
	Disk *DiskStore
	// Metrics, when non-nil, receives this batch's counters (pass one
	// registry to several batches to aggregate). Otherwise a private
	// registry is used and returned in Batch.Stats.
	Metrics *Metrics
	// Deadline bounds the whole batch (0 = none). When it expires, requests
	// not yet finished fail with context.DeadlineExceeded errors; completed
	// results are returned as usual, in request order.
	Deadline time.Duration
	// RequestTimeout bounds each request (0 = none), checked between the
	// compile, schedule and simulate stages.
	RequestTimeout time.Duration
	// FaultHook, when non-nil, is probed with (stage, request name) at the
	// start of the "compile", "schedule", "check" and "simulate" stages, once
	// per request at "cache" consultation, and before every compilation pass
	// (with the pass name as the stage). A returned error fails the stage —
	// subject to the same fallback rules as organic failures — and a "cache"
	// error drops the cached entries for the request (forcing recompute). A
	// hook panic is isolated like any stage panic. internal/faults provides
	// a seeded deterministic implementation; production batches leave it
	// nil.
	FaultHook func(stage, name string) error
	// Utilization additionally traces every simulation with the machine-
	// level tracer (sim.Tracer) and attaches the derived utilization
	// reports (per-FU occupancy, issue-slot efficiency, stall-cause
	// histogram) to each MachineResult. The tracer's attribution books are
	// verified against the timing counters on every traced run. Cached
	// timings carry whatever the original run recorded — a hit from an
	// untraced run has nil reports (best effort, like span observation).
	Utilization bool
	// Observer, when non-nil, records a span per batch, request, stage and
	// compilation pass into its bounded ring buffer (see internal/obs),
	// reconstructible as a batch → request → stage → pass tree and
	// exportable as a Chrome trace. A nil Observer costs one nil check per
	// would-be span.
	Observer *obs.Recorder
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) n() int {
	if o.N > 0 {
		return o.N
	}
	return 100
}

func (o Options) machines() []dlx.Config {
	if len(o.Machines) > 0 {
		return o.Machines
	}
	return []dlx.Config{dlx.Standard(4, 1)}
}

// salt renders the scheduling-relevant options into the cache-key salt. The
// backend name is part of it: the same DFG on the same machine schedules
// differently under different backends, and cached entries must never cross.
func (o Options) salt() string {
	return fmt.Sprintf("base=%d sync=%v/%v/%v/%v best=%v backend=%s", int(o.Baseline),
		o.Sync.NoPairArcs, o.Sync.NoLazyWaits, o.Sync.NoSPPriority, o.Sync.AscendingSP, o.Best,
		o.backendName())
}

// backendName normalizes Compile.Backend ("" is the historical "sync").
func (o Options) backendName() string {
	if o.Compile.Backend == "" {
		return "sync"
	}
	return o.Compile.Backend
}

// backendScheduler resolves the configured scheduling backend for a request
// simulated with trip count n. The exact backend's objective T = (n/d)(i-j)+l
// depends on the trip count, so unless Compile.Exact.N pins one it is
// evaluated at the trip count the result will be simulated (and audited) at.
func (o Options) backendScheduler(n int) (core.Scheduler, error) {
	bc := passes.BackendConfig{Sync: o.Sync, Exact: o.Compile.Exact}
	if bc.Exact.N == 0 {
		bc.Exact.N = n
	}
	return passes.Backend(o.Compile.Backend, bc)
}

// exactSalt returns the extra cache-key salt of exact-backend scheduling
// problems ("" for every other backend): the objective's trip count changes
// which schedule is optimal, so it must split the key space. The node budget
// is deliberately NOT part of the key — only proven-optimal results are ever
// published, and those are budget-invariant (a completed search returns the
// same schedule under any budget large enough to complete).
func (o Options) exactSalt(n int) string {
	if o.backendName() != "exact" {
		return ""
	}
	en := o.Compile.Exact.N
	if en == 0 {
		en = n
	}
	return fmt.Sprintf("exactN=%d", en)
}

// compileSalt renders the compile-relevant options into the compile-memo
// key: pass selection and artifact dumps change what a compilation produces.
func (o Options) compileSalt() string {
	return fmt.Sprintf("u=%d mig=%v noif=%v flow=%v dump=%s", o.Compile.Unroll,
		o.Compile.Migrate, o.Compile.NoIfConvert, o.Compile.FlowOnly,
		strings.Join(o.Compile.Dump, ","))
}

// Fault-probe stage names (the compilation passes are probed under their own
// pass names). These mirror internal/faults' stage constants without
// importing it: the hook signature is plain func values in both directions.
const (
	stageCompile = "compile"
	stageCache   = "cache"
)

// MachineResult is one loop's outcome on one machine configuration.
type MachineResult struct {
	// Machine is the configuration name.
	Machine string
	// Key is the schedule-cache key of this scheduling problem.
	Key dfg.Fingerprint
	// List and Sync are the baseline and synchronization-aware schedules;
	// Best is the never-degrades pick (nil unless Options.Best).
	List, Sync, Best *core.Schedule
	// ListTime, SyncTime and BestTime are simulated parallel execution
	// times for the loop's trip count.
	ListTime, SyncTime, BestTime int
	// ListStalls and SyncStalls are the simulators' stall-cycle counts.
	ListStalls, SyncStalls int
	// ListLBD and SyncLBD count synchronization pairs left lexically
	// backward by each schedule; ListLFD and SyncLFD the pairs placed
	// lexically forward (together they partition the sync arcs).
	ListLBD, SyncLBD int
	ListLFD, SyncLFD int
	// ListSignals and SyncSignals count Send_Signal issues during each
	// schedule's simulation (paper-level synchronization traffic).
	ListSignals, SyncSignals int
	// Improvement is the paper's Table 3 percentage, list vs sync.
	Improvement float64
	// Backend names the scheduler that produced the Sync slot ("sync" unless
	// Options.Compile.Backend selected another; see passes.Backend).
	Backend string
	// PredictedT is the backend's closed-form objective T = (n/d)(i-j)+l for
	// the served Sync schedule at this request's trip count.
	PredictedT int
	// Optimal reports that the backend proved PredictedT optimal (always
	// false for the heuristic backends, which claim nothing). A
	// budget-exhausted exact result is explicitly non-optimal and is never
	// published to the schedule cache.
	Optimal bool
	// LowerBound is the backend's proven lower bound on the objective (0 when
	// the backend proves none; equals PredictedT when Optimal).
	LowerBound int
	// SearchNodes counts branch-and-bound nodes expanded by the exact
	// backend (0 for heuristics).
	SearchNodes int64
	// BackendNote carries the backend's diagnostic, e.g. the exact solver's
	// budget-exhaustion note ("" when the result is clean).
	BackendNote string
	// CacheHit reports whether the schedules came from the cache.
	CacheHit bool
	// ListUtil and SyncUtil are the machine-level utilization reports of
	// the traced simulations (nil unless Options.Utilization, and nil on
	// cache hits recorded by untraced runs).
	ListUtil, SyncUtil *sim.Utilization
	// Degraded reports that the synchronization-aware schedule (and Best)
	// was replaced by the verified program-order list fallback after a
	// scheduler or simulator failure; Sync then holds the fallback, which
	// passed Schedule.Validate before being returned.
	Degraded bool
	// DegradedReason is the failure that triggered the fallback ("" unless
	// Degraded).
	DegradedReason string
}

// LoopResult is one request's outcome.
type LoopResult struct {
	// Index is the request's position in the batch.
	Index int
	// Name labels the loop.
	Name string
	// Err is the first stage error; the remaining fields are partial when
	// it is non-nil.
	Err error
	// N is the trip count the loop was simulated with.
	N int
	// Compiled pipeline artifacts.
	Loop     *lang.Loop
	Analysis *dep.Analysis
	SyncLoop *syncop.Loop
	Prog     *tac.Program
	Graph    *dfg.Graph
	// Trace is the pass manager's record of this loop's compilation:
	// per-pass timings, dumped artifacts (Options.Compile.Dump) and
	// positioned diagnostics. Shared with other requests that hit the same
	// compile-memo entry; treat as read-only.
	Trace *passes.Trace
	// Diags are the compile diagnostics (warnings, and the error when
	// Err != nil) with source positions.
	Diags diag.List
	// Lint are the synchronization-linter findings over the compiled loop
	// (internal/check): redundant waits, dead sends, suspicious distances.
	// Purely advisory here — lint errors fail the compilation only under
	// Options.Compile.Verify.
	Lint diag.List
	// Machines holds one result per Options.Machines entry, in order.
	Machines []MachineResult
}

// DoacrossSource renders the synchronized loop.
func (r *LoopResult) DoacrossSource() string { return r.SyncLoop.String() }

// Listing renders the compiled three-address code.
func (r *LoopResult) Listing() string { return tac.Listing(r.Prog.Instrs) }

// GraphInfo summarizes the data-flow graph partition.
func (r *LoopResult) GraphInfo() string { return r.Graph.SyncInfo() }

// Degraded reports whether any machine's result was served by the verified
// program-order fallback schedule.
func (r *LoopResult) Degraded() bool {
	for i := range r.Machines {
		if r.Machines[i].Degraded {
			return true
		}
	}
	return false
}

// Batch is the result of one pipeline run.
type Batch struct {
	// Loops holds per-request results in request order.
	Loops []LoopResult
	// Stats is the metrics snapshot taken when the batch finished. With a
	// shared Options.Metrics it includes earlier batches' counts.
	Stats Stats
}

// FirstErr returns the first per-loop error, if any.
func (b *Batch) FirstErr() error {
	for i := range b.Loops {
		if err := b.Loops[i].Err; err != nil {
			return fmt.Errorf("%s: %w", b.Loops[i].Name, err)
		}
	}
	return nil
}

// compileEntry is the cached product of the compilation passes for one
// source text.
type compileEntry struct {
	loop     *lang.Loop
	analysis *dep.Analysis
	syncLoop *syncop.Loop
	prog     *tac.Program
	graph    *dfg.Graph
	trace    *passes.Trace
	diags    diag.List
	lint     diag.List
}

// sourceKey addresses the compile memo: a hash of the loop's source text and
// the compile options in a key space disjoint from ConfigKey (distinct
// prefix).
func sourceKey(src, salt string) dfg.Fingerprint {
	return dfg.Fingerprint(sha256.Sum256([]byte("compile\x00" + salt + "\x00" + src)))
}

// schedEntry is the cached product of StageSchedule for one ConfigKey. The
// outcome fields mirror the backend's evidence so cache hits restore it;
// entries with optimal=false under the exact backend are never published
// (see the verify stage), so every cached exact entry carries a proof.
type schedEntry struct {
	list, sync, best *core.Schedule
	backend          string
	predictedT       int
	// predictedAtN is the trip count predictedT was computed for when the
	// prediction is the closed-form model of a heuristic schedule (exact
	// entries carry a backend objective and are cached per trip count).
	// Heuristic entries are shared across trip counts, so a cache hit at a
	// different N must re-evaluate the model rather than serve the
	// producer's number.
	predictedAtN int
	optimal      bool
	lowerBound   int
	searchNodes  int64
	note         string
}

// fillOutcome copies a schedule entry's backend evidence into the result,
// re-deriving the closed-form prediction at the request's own trip count
// when the entry was produced for a different one.
func (e *schedEntry) fillOutcome(mr *MachineResult, n int) {
	mr.Backend = e.backend
	mr.PredictedT = e.predictedT
	if e.predictedAtN != 0 && e.predictedAtN != n && e.sync != nil {
		mr.PredictedT = model.Predict(e.sync, n)
	}
	mr.Optimal = e.optimal
	mr.LowerBound = e.lowerBound
	mr.SearchNodes = e.searchNodes
	mr.BackendNote = e.note
}

// cacheable reports whether a verified, non-degraded entry may be published
// to the schedule cache. Budget-exhausted (non-optimal) exact results never
// are: a bigger budget could still improve them, and a cache hit would
// launder "budget exhausted" into a clean-looking proven answer.
func (e *schedEntry) cacheable() bool {
	return e.backend != "exact" || e.optimal
}

// timeEntry is the cached product of StageSimulate for one ConfigKey+n.
type timeEntry struct {
	listTime, syncTime, bestTime int
	listStalls, syncStalls       int
	listLBD, syncLBD             int
	listLFD, syncLFD             int
	listSignals, syncSignals     int
	// Machine-level utilization reports, recorded only when the batch ran
	// with Options.Utilization (nil otherwise; a cache hit serves whatever
	// the recording run kept).
	listUtil, syncUtil *sim.Utilization
}

// Run schedules every request and returns per-loop results plus aggregate
// stats. Per-loop failures land in LoopResult.Err (see Batch.FirstErr); Run
// itself only fails on unusable options.
func Run(reqs []Request, opt Options) (*Batch, error) {
	return RunContext(context.Background(), reqs, opt)
}

// RunContext is Run under a cancellation context, threaded through the
// worker pool and checked between the compile, schedule and simulate stages
// of every request. Options.Deadline additionally bounds the batch and
// Options.RequestTimeout each request. When the context expires, the
// requests cut off fail individually with the context's error — results are
// still returned for every request, in request order.
func RunContext(ctx context.Context, reqs []Request, opt Options) (*Batch, error) {
	machines := opt.machines()
	for _, m := range machines {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
	}
	// Fail fast on an unknown backend name, before any compilation work.
	if _, err := opt.backendScheduler(opt.n()); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	metrics := opt.Metrics
	if metrics == nil {
		metrics = NewMetrics()
	}
	metrics.AttachCache(opt.Cache)
	if opt.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Deadline)
		defer cancel()
	}
	batch := &Batch{Loops: make([]LoopResult, len(reqs))}
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := opt.workers()
	if workers > len(reqs) && len(reqs) > 0 {
		workers = len(reqs)
	}
	bspan := opt.Observer.Start(obs.KindBatch, "batch", obs.Span{})
	metrics.QueueAdd(int64(len(reqs)))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One scheduler scratch per worker: scheduling cache misses reuse
			// its buffers across requests (results are cloned before they are
			// published, so entries never alias scratch storage).
			sc := core.NewScratch()
			for i := range jobs {
				metrics.QueueAdd(-1)
				metrics.WorkerStart()
				batch.Loops[i] = runOne(ctx, i, reqs[i], machines, opt, sc, metrics, bspan)
				metrics.WorkerDone()
			}
		}()
	}
feed:
	for i := range reqs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			// The batch is cut off: fail the requests not yet handed to a
			// worker (workers notice the same context between stages).
			for j := i; j < len(reqs); j++ {
				name := reqs[j].name(j)
				metrics.QueueAdd(-1)
				batch.Loops[j] = LoopResult{
					Index: j, Name: name, N: reqs[j].N,
					Err: ctxErr(ctx, name, metrics),
				}
			}
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	failed := 0
	for i := range batch.Loops {
		if batch.Loops[i].Err != nil {
			failed++
		}
	}
	opt.Observer.End(&bspan, nil,
		obs.I("requests", int64(len(reqs))),
		obs.I("workers", int64(workers)),
		obs.I("failed", int64(failed)))
	batch.Stats = metrics.Stats()
	return batch, nil
}

// ctxErr converts an expired context into a request error, counting the
// timeout. It must only be called when ctx.Err() != nil.
func ctxErr(ctx context.Context, name string, metrics *Metrics) error {
	metrics.Timeout()
	return fmt.Errorf("pipeline: request %s: %w", name, ctx.Err())
}

// safeStage runs f, recovering a panic into a structured diagnostic carrying
// the stage, the request name and a stack digest, and counting it — one
// poisoned loop never kills the batch.
func safeStage(stage, name string, metrics *Metrics, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			metrics.Panic()
			err = diag.FromPanic(stage, name, r, debug.Stack())
		}
	}()
	return f()
}

// fallbackSchedule builds and verifies the degraded answer: the
// program-order list schedule, which the paper guarantees is always correct
// (the Best schedule's never-worse baseline). It is validated before use so
// the service never returns an unverified schedule.
func fallbackSchedule(g *dfg.Graph, cfg dlx.Config) (*core.Schedule, error) {
	fb, err := core.List(g, cfg, core.ProgramOrder)
	if err != nil {
		return nil, err
	}
	if err := fb.Validate(); err != nil {
		return nil, fmt.Errorf("fallback schedule failed validation: %w", err)
	}
	return fb, nil
}

// validate rejects malformed requests before they reach the parser or the
// simulator, with a positioned diagnostic.
func (r Request) validate(idx int) *diag.Diagnostic {
	pos := diag.Pos{}
	if r.Loop != nil {
		pos = r.Loop.Pos()
	}
	if r.Loop == nil && r.Source == "" {
		return diag.Errorf("pipeline", pos, "request %s has neither Source nor Loop", r.name(idx))
	}
	if r.N < 0 {
		return diag.Errorf("pipeline", pos, "request %s: negative trip count N=%d", r.name(idx), r.N)
	}
	if r.N > MaxTrip {
		return diag.Errorf("pipeline", pos, "request %s: trip count N=%d exceeds the limit %d", r.name(idx), r.N, MaxTrip)
	}
	return nil
}

// runOne pushes one request through compile → schedule → simulate. sc is the
// calling worker's reusable scheduler scratch (never shared across
// goroutines).
func runOne(ctx context.Context, idx int, req Request, machines []dlx.Config, opt Options, sc *core.Scratch, metrics *Metrics, bspan obs.Span) (res LoopResult) {
	res = LoopResult{Index: idx, Name: req.name(idx), N: req.N}
	rspan := opt.Observer.Start(obs.KindRequest, res.Name, bspan)
	defer func() {
		if opt.Observer == nil {
			return
		}
		attrs := []obs.Attr{obs.I("index", int64(idx))}
		if req.ID != "" {
			attrs = append(attrs, obs.S("request_id", req.ID))
		}
		opt.Observer.End(&rspan, res.Err, attrs...)
	}()
	// Last line of defense: a panic that escapes the per-stage recovery
	// (e.g. in glue code or a fault hook outside a stage) fails this request
	// only.
	defer func() {
		if r := recover(); r != nil {
			metrics.Panic()
			res.Err = diag.FromPanic("pipeline", res.Name, r, debug.Stack())
		}
	}()
	if d := req.validate(idx); d != nil {
		res.Err = d
		return res
	}
	if res.N == 0 {
		res.N = opt.n()
	}
	if ctx.Err() != nil {
		res.Err = ctxErr(ctx, res.Name, metrics)
		return res
	}
	if opt.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.RequestTimeout)
		defer cancel()
	}
	probe := func(stage string) error {
		if opt.FaultHook == nil {
			return nil
		}
		return opt.FaultHook(stage, res.Name)
	}

	// Cache health: one probe per request decides whether this request may
	// read the shared cache (an injected "corrupt" fault drops the cached
	// entries, forcing a recompute; recomputed values are safe to publish).
	useCache := opt.Cache != nil
	if useCache {
		if err := probe(stageCache); err != nil {
			useCache = false
		}
	}

	// Compile through the pass manager, via the content-addressed memo when
	// a cache is attached: identical source text (or identically rendering
	// parsed loops) shares one immutable compilation, trace included. The
	// key is computed whenever a cache is attached — even when a cache fault
	// disabled reads for this request — so the recompute below publishes
	// under this request's own fingerprint, never the zero key.
	src := req.Source
	if req.Loop != nil && (opt.Cache != nil || opt.Disk != nil) {
		src = req.Loop.String()
	}
	var srcKey dfg.Fingerprint
	var compiled *compileEntry
	if opt.Cache != nil {
		srcKey = sourceKey(src, opt.compileSalt())
	}
	cspan := opt.Observer.Start(obs.KindStage, stageCompile, rspan)
	compileCached := false
	endCompile := func(err error) {
		if opt.Observer == nil {
			return
		}
		opt.Observer.End(&cspan, err, obs.B("cache_hit", compileCached))
	}
	if useCache {
		if v, ok := opt.Cache.Get(srcKey); ok {
			compiled = v.(*compileEntry)
			compileCached = true
			metrics.CacheHit()
		} else {
			metrics.CacheMiss()
		}
	}
	if compiled == nil {
		if err := probe(stageCompile); err != nil {
			res.Err = fmt.Errorf("pipeline: compile %s: %w", res.Name, err)
			endCompile(res.Err)
			return res
		}
		popts := opt.Compile
		popts.Tracer = metrics
		popts.FaultHook = opt.FaultHook
		popts.Request = res.Name
		popts.Observer = opt.Observer
		popts.ParentSpan = cspan
		pl := passes.New(popts)
		var pctx *passes.Context
		if req.Loop != nil {
			pctx, res.Err = pl.RunLoopCtx(ctx, req.Loop)
		} else {
			pctx, res.Err = pl.RunSourceCtx(ctx, req.Source)
		}
		res.Trace = pctx.Trace
		res.Diags = pctx.Diags
		if res.Err != nil {
			// A deadline/cancellation that fired inside the pass manager is
			// a timeout like any other: count it and wrap it consistently.
			if cerr := ctx.Err(); cerr != nil && errors.Is(res.Err, cerr) {
				res.Err = ctxErr(ctx, res.Name, metrics)
			}
			endCompile(res.Err)
			return res
		}
		// Lint the synchronization placement of every fresh compilation.
		// Under Compile.Verify the verify pass already ran the linter (and
		// failed on errors); otherwise the findings are advisory.
		lint := pctx.LintFindings
		if !opt.Compile.Verify {
			lint = append(check.Lint(pctx.Loop), check.LintSync(pctx.Sync)...)
		}
		metrics.LintFindings(int64(len(lint)))
		de, di, dc := pctx.Analysis.Counts()
		metrics.ObserveDeps(int64(de), int64(di), int64(dc))
		compiled = &compileEntry{
			loop: pctx.Loop, analysis: pctx.Analysis, syncLoop: pctx.Sync,
			prog: pctx.Code, graph: pctx.Graph, trace: pctx.Trace, diags: pctx.Diags,
			lint: lint,
		}
		if opt.Cache != nil {
			v, _ := opt.Cache.Put(srcKey, compiled)
			compiled = v.(*compileEntry)
		}
	}
	endCompile(nil)
	res.Loop = compiled.loop
	res.Analysis = compiled.analysis
	res.SyncLoop = compiled.syncLoop
	res.Prog = compiled.prog
	res.Graph = compiled.graph
	res.Trace = compiled.trace
	res.Diags = compiled.diags
	res.Lint = compiled.lint

	fp := res.Graph.Fingerprint()
	salt := opt.salt()
	exSalt := opt.exactSalt(res.N)
	// The trip-count/window salt of the time cache is constant per request;
	// format it once instead of per machine.
	nwSalt := fmt.Sprintf("n=%d w=%d", res.N, opt.Window)
	res.Machines = make([]MachineResult, len(machines))
	// One verifier per request: the program's dependence edges are derived
	// on the first fresh verification and reused for every machine and
	// schedule after it. It lives only as long as the request.
	var verifier *check.Verifier
	verify := func(s *core.Schedule) error {
		if verifier == nil {
			verifier = check.NewVerifier(res.Prog)
		}
		return check.Err(verifier.Verify(s))
	}
	for k, cfg := range machines {
		if ctx.Err() != nil {
			res.Err = ctxErr(ctx, res.Name, metrics)
			return res
		}
		mr := &res.Machines[k]
		mr.Machine = cfg.Name
		if exSalt != "" {
			mr.Key = dfg.KeyFrom(fp, cfg, "sched", salt, exSalt)
		} else {
			mr.Key = dfg.KeyFrom(fp, cfg, "sched", salt)
		}

		// Schedule, through the cache when one is attached.
		sspan := opt.Observer.Start(obs.KindStage, StageSchedule, rspan)
		endSched := func(err error) {
			if opt.Observer == nil {
				return
			}
			opt.Observer.End(&sspan, err, obs.S("machine", cfg.Name),
				obs.B("cache_hit", mr.CacheHit), obs.B("degraded", mr.Degraded))
		}
		var entry *schedEntry
		if useCache {
			if v, ok := opt.Cache.Get(mr.Key); ok {
				entry = v.(*schedEntry)
				mr.CacheHit = true
				metrics.CacheHit()
			}
		}
		fresh := entry == nil
		if entry == nil {
			if useCache {
				metrics.CacheMiss()
			}
			e := &schedEntry{backend: opt.backendName()}
			err := metrics.timed(StageSchedule, func() error {
				return safeStage(StageSchedule, res.Name, metrics, func() error {
					if err := probe(StageSchedule); err != nil {
						return err
					}
					lst, err := sc.List(res.Graph, cfg, opt.Baseline)
					if err != nil {
						return err
					}
					// Clone: the entry may be cached and outlive the worker's
					// scratch, whose buffers the next call recycles.
					e.list = lst.Clone()
					// The synchronization-aware slot is served by the
					// configured backend (the paper's heuristic by default,
					// resolved through the Scheduler seam).
					sched, err := opt.backendScheduler(res.N)
					if err != nil {
						return err
					}
					if ss, ok := sched.(core.ScratchScheduler); ok {
						// Heuristic backends schedule into the worker scratch;
						// only the surviving schedule is materialized.
						s, err := ss.ScheduleScratch(sc, res.Graph, cfg)
						if err != nil {
							return err
						}
						e.sync = s.Clone()
						e.backend = sched.Name()
					} else {
						out, err := sched.Schedule(res.Graph, cfg)
						if err != nil {
							return err
						}
						e.sync = out.Schedule
						e.backend = sched.Name()
						e.predictedT = out.T
						e.optimal = out.Optimal
						e.lowerBound = out.LowerBound
						e.searchNodes = out.Nodes
						e.note = out.Note
					}
					if e.predictedT == 0 && e.sync != nil {
						// Heuristic backends attach no objective; report the
						// closed-form prediction for the served schedule.
						e.predictedT = model.Predict(e.sync, res.N)
						e.predictedAtN = res.N
					}
					// Post-hoc verification of the synchronization-aware
					// schedule: a scheduler bug degrades the answer, it does
					// not ship an invalid schedule.
					if err := e.sync.Validate(); err != nil {
						return fmt.Errorf("%s schedule failed validation: %w", e.backend, err)
					}
					if opt.Best {
						b, err := sc.Best(res.Graph, cfg)
						if err != nil {
							return err
						}
						e.best = b.Clone()
					}
					return nil
				})
			})
			if err != nil {
				// Graceful degradation: serve the verified program-order
				// baseline instead of failing the request. The paper
				// guarantees it is a correct schedule whenever one exists.
				fb, ferr := fallbackSchedule(res.Graph, cfg)
				if ferr != nil {
					res.Err = fmt.Errorf("pipeline: schedule %s on %s: %v (fallback failed: %w)",
						res.Name, cfg.Name, err, ferr)
					endSched(res.Err)
					return res
				}
				e = &schedEntry{list: e.list, sync: fb, backend: e.backend,
					predictedT: model.Predict(fb, res.N)}
				if e.list == nil || e.list.Validate() != nil {
					e.list = fb
				}
				if opt.Best {
					e.best = fb
				}
				mr.Degraded = true
				mr.DegradedReason = err.Error()
				metrics.Fallback()
				entry = e
			} else {
				entry = e
			}
		}
		mr.List, mr.Sync, mr.Best = entry.list, entry.sync, entry.best
		entry.fillOutcome(mr, res.N)
		endSched(nil)

		// Independent verification of every freshly built schedule —
		// organic or fallback — before it is served or published:
		// internal/check re-derives the dependence edges from the compiled
		// code (sharing no code with the schedulers) and re-checks the
		// synchronization conditions, resource feasibility and deadlock
		// freedom. A rejected schedule degrades onto the program-order
		// fallback exactly like a scheduler panic does; a rejected fallback
		// fails the request. Only verified, non-degraded entries reach the
		// cache, so cache hits serve schedules that already passed and skip
		// the stage.
		if fresh {
			vspan := opt.Observer.Start(obs.KindStage, StageVerify, rspan)
			endVerify := func(err error) {
				if opt.Observer == nil {
					return
				}
				opt.Observer.End(&vspan, err, obs.S("machine", cfg.Name),
					obs.B("degraded", mr.Degraded))
			}
			verr := metrics.timed(StageVerify, func() error {
				return safeStage(StageVerify, res.Name, metrics, func() error {
					if err := probe(StageVerify); err != nil {
						return err
					}
					for _, s := range []*core.Schedule{entry.list, entry.sync, entry.best} {
						if s == nil {
							continue
						}
						if err := verify(s); err != nil {
							return err
						}
					}
					return nil
				})
			})
			if verr != nil {
				metrics.Rejected()
				if mr.Degraded {
					// Even the fallback was rejected; nothing verified is
					// left to serve.
					res.Err = fmt.Errorf("pipeline: verify %s on %s: %w", res.Name, cfg.Name, verr)
					endVerify(res.Err)
					return res
				}
				fb, ferr := fallbackSchedule(res.Graph, cfg)
				if ferr == nil {
					ferr = verify(fb)
				}
				if ferr != nil {
					res.Err = fmt.Errorf("pipeline: verify %s on %s: %v (fallback failed: %w)",
						res.Name, cfg.Name, verr, ferr)
					endVerify(res.Err)
					return res
				}
				entry = &schedEntry{list: fb, sync: fb, backend: entry.backend,
					predictedT: model.Predict(fb, res.N)}
				if opt.Best {
					entry.best = fb
				}
				mr.Degraded = true
				mr.DegradedReason = verr.Error()
				metrics.Fallback()
			} else {
				metrics.Verified()
				if useCache && !mr.Degraded && entry.cacheable() {
					v, _ := opt.Cache.Put(mr.Key, entry)
					entry = v.(*schedEntry)
				}
			}
			mr.List, mr.Sync, mr.Best = entry.list, entry.sync, entry.best
			entry.fillOutcome(mr, res.N)
			endVerify(nil)
		}

		if ctx.Err() != nil {
			res.Err = ctxErr(ctx, res.Name, metrics)
			return res
		}

		// Simulate; timings additionally key on trip count and window.
		// Degraded schedules never touch the time cache.
		simOpt := sim.Options{Lo: 1, Hi: res.N, Window: opt.Window}
		mspan := opt.Observer.Start(obs.KindStage, StageSimulate, rspan)
		var times *timeEntry
		timeCached := false
		timeKey := dfg.KeyFrom(fp, cfg, "time", salt, nwSalt, exSalt)
		// Timings of schedules that may not be cached (non-optimal exact
		// results, which depend on the search budget) stay out of the time
		// cache too — the budget is not part of the key.
		if useCache && !mr.Degraded && entry.cacheable() {
			if v, ok := opt.Cache.Get(timeKey); ok {
				times = v.(*timeEntry)
				timeCached = true
				metrics.CacheHit()
			} else {
				metrics.CacheMiss()
			}
		}
		if times == nil {
			te := &timeEntry{}
			err := metrics.timed(StageSimulate, func() error {
				return safeStage(StageSimulate, res.Name, metrics, func() error {
					if err := probe(StageSimulate); err != nil {
						return err
					}
					// With Options.Utilization the run is traced and the
					// attribution books are verified against the timing
					// counters; otherwise this is plain sim.Time.
					timeOne := func(s *core.Schedule) (sim.Timing, *sim.Utilization, error) {
						if !opt.Utilization {
							tm, err := sim.Time(s, simOpt)
							return tm, nil, err
						}
						tm, u, err := sim.Utilize(s, simOpt)
						if err == nil {
							u.Loop = res.Name
						}
						return tm, u, err
					}
					lt, lu, err := timeOne(entry.list)
					if err != nil {
						return err
					}
					st, su, err := timeOne(entry.sync)
					if err != nil {
						return err
					}
					te.listUtil, te.syncUtil = lu, su
					te.listTime, te.listStalls = lt.Total, lt.StallCycles
					te.syncTime, te.syncStalls = st.Total, st.StallCycles
					te.listSignals, te.syncSignals = lt.SignalsSent, st.SignalsSent
					te.listLBD, te.listLFD = arcSplit(entry.list)
					te.syncLBD, te.syncLFD = arcSplit(entry.sync)
					if entry.best != nil {
						bt, err := sim.Time(entry.best, simOpt)
						if err != nil {
							return err
						}
						te.bestTime = bt.Total
					}
					return nil
				})
			})
			if err != nil {
				if mr.Degraded {
					// Even the fallback failed to simulate; nothing correct
					// left to serve.
					res.Err = fmt.Errorf("pipeline: simulate %s on %s: %w", res.Name, cfg.Name, err)
					endSim(mspan, res.Err, mr, nil, timeCached, opt.Observer)
					return res
				}
				// Degrade at the simulation stage: time the verified
				// program-order fallback instead. It too must pass the
				// independent verifier before being served.
				fb, ferr := fallbackSchedule(res.Graph, cfg)
				if ferr == nil {
					ferr = verify(fb)
				}
				var ft sim.Timing
				if ferr == nil {
					ft, ferr = sim.Time(fb, simOpt)
				}
				if ferr != nil {
					res.Err = fmt.Errorf("pipeline: simulate %s on %s: %v (fallback failed: %w)",
						res.Name, cfg.Name, err, ferr)
					endSim(mspan, res.Err, mr, nil, timeCached, opt.Observer)
					return res
				}
				entry = &schedEntry{list: fb, sync: fb, backend: entry.backend,
					predictedT: model.Predict(fb, res.N)}
				if opt.Best {
					entry.best = fb
				}
				mr.List, mr.Sync, mr.Best = entry.list, entry.sync, entry.best
				entry.fillOutcome(mr, res.N)
				mr.Degraded = true
				mr.CacheHit = false // the cached schedules were replaced by the fallback
				mr.DegradedReason = err.Error()
				metrics.Fallback()
				fbLBD, fbLFD := arcSplit(fb)
				te = &timeEntry{
					listTime: ft.Total, syncTime: ft.Total,
					listStalls: ft.StallCycles, syncStalls: ft.StallCycles,
					listSignals: ft.SignalsSent, syncSignals: ft.SignalsSent,
					listLBD: fbLBD, syncLBD: fbLBD,
					listLFD: fbLFD, syncLFD: fbLFD,
				}
				if opt.Best {
					te.bestTime = ft.Total
				}
				times = te
			} else {
				times = te
				if useCache && !mr.Degraded && entry.cacheable() {
					v, _ := opt.Cache.Put(timeKey, times)
					times = v.(*timeEntry)
				}
			}
		}
		mr.ListTime, mr.SyncTime, mr.BestTime = times.listTime, times.syncTime, times.bestTime
		mr.ListUtil, mr.SyncUtil = times.listUtil, times.syncUtil
		mr.ListStalls, mr.SyncStalls = times.listStalls, times.syncStalls
		mr.ListLBD, mr.SyncLBD = times.listLBD, times.syncLBD
		mr.ListLFD, mr.SyncLFD = times.listLFD, times.syncLFD
		mr.ListSignals, mr.SyncSignals = times.listSignals, times.syncSignals
		mr.Improvement = model.Speedup(times.listTime, times.syncTime)
		// Independent timing audit: the simulated total must cover at least
		// one full iteration and at least the closed-form lower bound
		// T = (n/d)(i-j) + l of the served schedule. A violation means the
		// simulator and the analytical model disagree about this schedule —
		// there is no better answer to fall back on, so the request fails.
		if err := check.Err(check.VerifyTiming(mr.Sync, mr.SyncTime, res.N)); err != nil {
			metrics.Error(StageVerify)
			res.Err = fmt.Errorf("pipeline: verify %s on %s: %w", res.Name, cfg.Name, err)
			endSim(mspan, res.Err, mr, times, timeCached, opt.Observer)
			return res
		}
		// Write-through to the persistent tier: freshly simulated, verified,
		// non-degraded, cacheable results survive restarts. Failures are
		// counted by the store and never fail the request.
		if opt.Disk != nil && !timeCached && !mr.Degraded && entry.cacheable() {
			persistResult(opt.Disk, res.Name, src, opt, cfg, fp, res.N, entry, times)
		}
		// Paper-level counters describe the schedule actually served (the
		// synchronization-aware one, or the fallback standing in for it).
		metrics.ObserveSim(int64(times.syncSignals), int64(times.syncStalls),
			int64(times.syncLBD), int64(times.syncLFD))
		metrics.ObserveUtil(times.syncUtil)
		endSim(mspan, nil, mr, times, timeCached, opt.Observer)
	}
	return res
}

// arcSplit partitions a schedule's synchronization pairs into lexically
// backward and forward arcs.
func arcSplit(s *core.Schedule) (lbd, lfd int) {
	lbd = s.NumLBD()
	return lbd, len(s.PairSpans()) - lbd
}

// endSim finishes a simulate-stage span with the paper-level attributes of
// the served result (times may be nil when the stage failed outright). On a
// nil recorder it returns before building any attributes — the happy path of
// an unobserved batch allocates nothing here.
func endSim(sp obs.Span, err error, mr *MachineResult, times *timeEntry, cached bool, rec *obs.Recorder) {
	if rec == nil {
		return
	}
	attrs := []obs.Attr{
		obs.S("machine", mr.Machine),
		obs.B("cache_hit", cached),
		obs.B("degraded", mr.Degraded),
	}
	if times != nil {
		attrs = append(attrs,
			obs.I("signals_sent", int64(times.syncSignals)),
			obs.I("wait_stall_cycles", int64(times.syncStalls)),
			obs.I("lbd_arcs", int64(times.syncLBD)),
			obs.I("lfd_arcs", int64(times.syncLFD)),
			obs.I("sync_cycles", int64(times.syncTime)),
			obs.I("list_cycles", int64(times.listTime)))
	}
	rec.End(&sp, err, attrs...)
}
