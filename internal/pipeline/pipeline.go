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
//   - Graceful degradation: when a machine's schedule, check or simulate
//     stage fails — an error, a panic, a schedule rejected by Validate or by
//     the verifier — the result is served by the program-order list
//     schedule, which the paper guarantees is always a correct (if slower)
//     answer, flagged Degraded with the reason. The fallback redoes the
//     failed stage's work and every earlier stage's (it is built, verified
//     after a check or simulate failure, timed after a simulate failure);
//     later stages then run on it as usual. A second failure on the same
//     machine fails the request.
//   - Independent verification: every freshly built schedule — organic or
//     fallback — passes through internal/check before it is served or
//     published to the cache. The checker re-derives the dependence edges
//     from the compiled code and re-checks the paper's synchronization
//     conditions, resource feasibility and deadlock freedom without sharing
//     code with the schedulers; cache hits therefore only ever serve
//     schedules that already passed. Fresh compilations additionally run
//     the synchronization linter (LoopResult.Lint).
//   - Fault injection: Options.FaultHook (see internal/faults) is probed at
//     every stage boundary so chaos tests can drive each failure path
//     deterministically.
package pipeline

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strconv"
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

// MaxTracedTrip is the largest trip count a request may ask for when its
// simulations are traced (Options.Utilization, scheduld -machine-obs). A
// traced run walks every iteration and keeps a row of issue cycles and the
// stall spans of each, so its memory grows with n: fig1 at n = 2^20
// allocates 580 MiB traced against 0.1 MiB untraced. At this bound a traced
// request keeps its trace to tens of MiB.
const MaxTracedTrip = 1 << 16

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
	// Requests above MaxTrip, or above MaxTracedTrip when simulations are
	// traced, are rejected before any stage runs.
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
	// error makes the request bypass the in-memory cache: it neither reads
	// nor writes it, recomputing everything. A hook panic is isolated like
	// any stage panic. internal/faults provides a seeded deterministic
	// implementation; production batches leave it nil.
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

// maxTrip returns the largest trip count a request is admitted with:
// MaxTracedTrip when simulations are traced, MaxTrip otherwise.
func (o Options) maxTrip() int {
	if o.Utilization {
		return MaxTracedTrip
	}
	return MaxTrip
}

// tripLimit describes maxTrip in an error message.
func (o Options) tripLimit() string {
	if o.Utilization {
		return fmt.Sprintf("the limit %d of traced simulations", MaxTracedTrip)
	}
	return fmt.Sprintf("the limit %d", MaxTrip)
}

// Validate checks what every request of a batch depends on: each machine
// is a valid configuration, the default trip count is at most MaxTrip, or
// MaxTracedTrip when simulations are traced (it is bounded like every
// request's), and the backend name is known. RunContext and NewService
// fail with its error before any work, and server.New refuses the daemon's
// defaults with it at startup.
func (o Options) Validate() error {
	for _, m := range o.machines() {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("pipeline: machine %q: %w", m.Name, err)
		}
	}
	if o.N > o.maxTrip() {
		return fmt.Errorf("pipeline: trip count N=%d exceeds %s", o.N, o.tripLimit())
	}
	if _, err := o.backendScheduler(o.n()); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	return nil
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
	// was replaced by the program-order list fallback after a schedule,
	// check or simulate failure; Sync then holds the fallback, which passed
	// Schedule.Validate and the independent verifier before being served.
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
func (r *LoopResult) Listing() string { return r.Prog.Listing() }

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
	// fp is graph's fingerprint, hashed once per compilation: every request
	// served by the entry keys its schedules and timings on it.
	fp    dfg.Fingerprint
	trace *passes.Trace
	diags diag.List
	lint  diag.List
}

// newCompileEntry packages a fresh compilation for the compile memo. Under
// verified (Compile.Verify) the verify pass already ran the synchronization
// linter, and failed on errors; otherwise its findings are computed here,
// advisory.
func newCompileEntry(pctx *passes.Context, verified bool) *compileEntry {
	lint := pctx.LintFindings
	if !verified {
		lint = append(check.Lint(pctx.Loop), check.LintSync(pctx.Sync)...)
	}
	return &compileEntry{
		loop: pctx.Loop, analysis: pctx.Analysis, syncLoop: pctx.Sync,
		prog: pctx.Code, graph: pctx.Graph, fp: pctx.Graph.Fingerprint(),
		trace: pctx.Trace, diags: pctx.Diags, lint: lint,
	}
}

// sourceKey addresses the compile memo: the hash of "compile\x00", the
// compile options, "\x00" and the loop's source text, a key space disjoint
// from ConfigKey (distinct prefix). The text is hashed in one piece from a
// stack buffer when it fits, and otherwise streamed into the hash: the
// source is never copied into a new allocation.
func sourceKey(src, salt string) dfg.Fingerprint {
	var buf [2048]byte
	b := append(buf[:0], "compile\x00"...)
	b = append(b, salt...)
	b = append(b, 0)
	if len(b)+len(src) <= len(buf) {
		return sha256.Sum256(append(b, src...))
	}
	h := sha256.New()
	h.Write(b) // hash.Hash writes never fail
	io.WriteString(h, src)
	var k dfg.Fingerprint
	h.Sum(k[:0])
	return k
}

// Key spaces of keySet.key.
const (
	keySched = "sched"
	keyTime  = "time"
	keyDisk  = "disk"
)

// keySet derives the content addresses of one scheduling problem at one
// trip count. runOne, persistResult and LoadDisk all build their keys here,
// so a live run, the entry it persists and the entry a restart restores
// agree on them.
type keySet struct {
	// fp is the graph fingerprint; schedSalt and exSalt the scheduler and
	// exact-backend salts the problem is scheduled under (Options.salt and
	// Options.exactSalt).
	fp                dfg.Fingerprint
	schedSalt, exSalt string
	n, window         int
}

// problemKeys returns the content addresses of the scheduling problem of
// the graph fp at trip count n under the Service's options.
func (s *Service) problemKeys(fp dfg.Fingerprint, n int) keySet {
	return keySet{fp: fp, schedSalt: s.schedSalt, exSalt: s.opt.exactSalt(n), n: n, window: s.opt.Window}
}

// sourceOf returns the text req is compiled from and keyed on: its Source,
// or its parsed Loop rendered when a cache or disk tier keys on the text.
func (s *Service) sourceOf(req Request) string {
	if req.Loop != nil && (s.opt.Cache != nil || s.opt.Disk != nil) {
		return req.Loop.String()
	}
	return req.Source
}

// key returns the problem's key on cfg in one key space: keySched is the
// schedule-cache key (graph + machine + scheduler salt, plus the exact salt
// when there is one); keyTime and keyDisk add the trip count and window,
// and always carry the exact salt.
func (k *keySet) key(space string, cfg dlx.Config) dfg.Fingerprint {
	if space == keySched {
		if k.exSalt == "" {
			return dfg.KeyFrom(k.fp, cfg, keySched, k.schedSalt)
		}
		return dfg.KeyFrom(k.fp, cfg, keySched, k.schedSalt, k.exSalt)
	}
	// The trip-count/window salt "n=<n> w=<window>" is rendered on the
	// stack: KeyFrom keeps none of its salts.
	var buf [48]byte
	nw := append(buf[:0], "n="...)
	nw = strconv.AppendInt(nw, int64(k.n), 10)
	nw = append(nw, " w="...)
	nw = strconv.AppendInt(nw, int64(k.window), 10)
	return dfg.KeyFrom(k.fp, cfg, space, k.schedSalt, string(nw), k.exSalt)
}

// schedEntry is the cached product of StageSchedule for one ConfigKey. The
// outcome fields mirror the backend's evidence so cache hits restore it;
// entries with optimal=false under the exact backend are never published
// (see cacheOK), so every cached exact entry carries a proof.
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

// serve points the result at the entry's schedules and copies its backend
// evidence, re-deriving the closed-form prediction at the request's own
// trip count when the entry was produced for a different one.
func (e *schedEntry) serve(mr *MachineResult, n int) {
	mr.List, mr.Sync, mr.Best = e.list, e.sync, e.best
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

// timeCounters are the simulated counters of one served result, cached in
// a timeEntry and persisted as diskPayload.Times (the field names are the
// persisted JSON keys).
type timeCounters struct {
	ListTime, SyncTime, BestTime int
	ListStalls, SyncStalls       int
	ListLBD, SyncLBD             int
	ListLFD, SyncLFD             int
	ListSignals, SyncSignals     int
}

// countersOf collects the counters of a list and a synchronization-aware
// schedule's simulations (BestTime is left to the caller).
func countersOf(lt, st sim.Timing, list, sync *core.Schedule) timeCounters {
	c := timeCounters{
		ListTime: lt.Total, SyncTime: st.Total,
		ListStalls: lt.StallCycles, SyncStalls: st.StallCycles,
		ListSignals: lt.SignalsSent, SyncSignals: st.SignalsSent,
	}
	c.ListLBD, c.ListLFD = arcSplit(list)
	c.SyncLBD, c.SyncLFD = arcSplit(sync)
	return c
}

// timeEntry is the cached product of StageSimulate for one ConfigKey+n.
type timeEntry struct {
	timeCounters
	// Machine-level utilization reports, recorded only when the batch ran
	// with Options.Utilization (nil otherwise; a cache hit serves whatever
	// the recording run kept).
	listUtil, syncUtil *sim.Utilization
}

// serve copies the timing into the result.
func (t *timeEntry) serve(mr *MachineResult) {
	mr.ListTime, mr.SyncTime, mr.BestTime = t.ListTime, t.SyncTime, t.BestTime
	mr.ListStalls, mr.SyncStalls = t.ListStalls, t.SyncStalls
	mr.ListLBD, mr.SyncLBD = t.ListLBD, t.SyncLBD
	mr.ListLFD, mr.SyncLFD = t.ListLFD, t.SyncLFD
	mr.ListSignals, mr.SyncSignals = t.ListSignals, t.SyncSignals
	mr.ListUtil, mr.SyncUtil = t.listUtil, t.syncUtil
	mr.Improvement = model.Speedup(t.ListTime, t.SyncTime)
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
// still returned for every request, in request order. The batch runs over a
// Service of its own, its requests fanned out over the workers by FanOut.
func RunContext(ctx context.Context, reqs []Request, opt Options) (*Batch, error) {
	svc, err := newService(opt)
	if err != nil {
		return nil, err
	}
	metrics, rec := svc.metrics, opt.Observer
	if opt.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Deadline)
		defer cancel()
	}
	batch := &Batch{Loops: make([]LoopResult, len(reqs))}
	workers := min(opt.workers(), len(reqs))
	bspan := rec.Start(obs.KindBatch, "batch", obs.Span{})
	metrics.QueueAdd(int64(len(reqs)))
	FanOut(workers, len(reqs), func(i int) error {
		metrics.QueueAdd(-1)
		if ctx.Err() != nil {
			// The batch is cut off: fail the request without running a stage.
			name := reqs[i].name(i)
			batch.Loops[i] = LoopResult{Index: i, Name: name, N: reqs[i].N,
				Err: ctxErr(ctx, name, metrics)}
			return nil
		}
		batch.Loops[i] = svc.runOne(ctx, rec, bspan, i, reqs[i])
		return nil
	})
	endBatch(rec, &bspan, workers, batch.Loops)
	batch.Stats = metrics.Stats()
	return batch, nil
}

// scratchPool holds the scheduler scratches of batches and Service.Run
// calls. Scheduling cache misses reuse a scratch's buffers across requests
// (results are cloned before they are published, so entries never alias
// scratch storage), and a scratch serves one request at a time.
var scratchPool = sync.Pool{New: func() any { return core.NewScratch() }}

// endBatch finishes a batch span with its request, worker and failure
// counts.
func endBatch(rec *obs.Recorder, sp *obs.Span, workers int, loops []LoopResult) {
	failed := 0
	for i := range loops {
		if loops[i].Err != nil {
			failed++
		}
	}
	rec.End(sp, nil,
		obs.I("requests", int64(len(loops))),
		obs.I("workers", int64(workers)),
		obs.I("failed", int64(failed)))
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
// simulator, with a positioned diagnostic. The trip count is bounded by
// opt's maxTrip.
func (r Request) validate(idx int, opt Options) *diag.Diagnostic {
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
	if r.N > opt.maxTrip() {
		return diag.Errorf("pipeline", pos, "request %s: trip count N=%d exceeds %s", r.name(idx), r.N, opt.tripLimit())
	}
	return nil
}

// runOne pushes one request through compile → schedule → check → simulate
// with a scheduler scratch from the pool, recording its spans into rec under
// the batch span bspan.
func (s *Service) runOne(ctx context.Context, rec *obs.Recorder, bspan obs.Span, idx int, req Request) LoopResult {
	r := runner{Service: s, sc: scratchPool.Get().(*core.Scratch), rec: rec, reqID: req.ID,
		res: LoopResult{Index: idx, Name: req.name(idx), N: req.N}}
	s.metrics.WorkerStart()
	r.rspan = rec.Start(obs.KindRequest, r.res.Name, bspan)
	r.res.Err = r.run(ctx, req)
	r.endSpan(&r.rspan, r.res.Err, nil)
	s.metrics.WorkerDone()
	scratchPool.Put(r.sc)
	return r.res
}

// run is runOne's body; its error is the request's.
func (r *runner) run(ctx context.Context, req Request) (err error) {
	// Last line of defense: a panic that escapes the per-stage recovery
	// (e.g. in glue code or a fault hook outside a stage) fails this request
	// only.
	defer func() {
		if p := recover(); p != nil {
			r.metrics.Panic()
			err = diag.FromPanic("pipeline", r.res.Name, p, debug.Stack())
		}
	}()
	res := &r.res
	if d := req.validate(res.Index, r.opt); d != nil {
		return d
	}
	if res.N == 0 {
		res.N = r.opt.n()
	}
	if ctx.Err() != nil {
		return ctxErr(ctx, res.Name, r.metrics)
	}
	if r.opt.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opt.RequestTimeout)
		defer cancel()
	}
	// Cache health: one probe per request decides whether this request may
	// use the shared cache at all. An injected "corrupt" fault declares the
	// cached entries unusable, so the request neither reads them nor
	// publishes over them: it recomputes everything for itself.
	r.useCache = r.opt.Cache != nil && r.probe(stageCache) == nil
	if err := r.compile(ctx, req); err != nil {
		return err
	}
	r.simOpt = sim.Options{Lo: 1, Hi: res.N, Window: r.opt.Window}
	res.Machines = make([]MachineResult, len(r.machines))
	for k, cfg := range r.machines {
		if err := r.machine(ctx, &machineRun{cfg: cfg, mr: &res.Machines[k]}); err != nil {
			return err
		}
	}
	return nil
}

// runner carries one request through its stages on the calling worker. The
// schedule, check and simulate stages of every machine share one stage
// wrapper (stage), one read-through over the three cache levels
// (readThrough), one span-end helper (endSpan) and one degradation rule
// (degrade).
type runner struct {
	*Service
	sc *core.Scratch
	// rec records the request's spans (nil: none).
	rec   *obs.Recorder
	res   LoopResult
	reqID string
	rspan obs.Span
	// useCache reports that the request may read and write the in-memory
	// cache: one is attached and the request's "cache" probe did not fire.
	useCache      bool
	compileCached bool
	// src is the source text the compile memo and the disk tier key on.
	src string
	// keys are the request's content addresses, set once compile knows the
	// graph fingerprint.
	keys   keySet
	simOpt sim.Options
	// verifier holds the program's dependence edges, derived on the first
	// fresh verification and reused for every machine and schedule after
	// it. It lives only as long as the request.
	verifier *check.Verifier
}

// machineRun is one machine's share of a request.
type machineRun struct {
	cfg        dlx.Config
	mr         *MachineResult
	entry      *schedEntry
	times      *timeEntry
	timeCached bool
}

// probe consults the fault hook at the named stage.
func (r *runner) probe(stage string) error {
	if r.opt.FaultHook == nil {
		return nil
	}
	return r.opt.FaultHook(stage, r.res.Name)
}

// stage runs one schedule, check or simulate stage: the fault probe and f,
// panic-isolated by safeStage, timed and error-counted under the stage's
// name. (Compilation is probed and traced pass by pass by the pass manager.)
func (r *runner) stage(name string, f func() error) error {
	return r.metrics.timed(name, func() error {
		return safeStage(name, r.res.Name, r.metrics, func() error {
			if err := r.probe(name); err != nil {
				return err
			}
			return f()
		})
	})
}

// cacheOK is the in-memory cache's one rule, for reading and for
// publishing: the request may use the cache, and m (nil at the compile
// level) holds neither a degraded result nor a schedule entry that may not
// be cached. The timings of an uncacheable (budget-exhausted exact) entry
// stay out of the time cache too: the budget is not part of the key.
func (r *runner) cacheOK(m *machineRun) bool {
	return r.useCache && (m == nil || !m.mr.Degraded && (m.entry == nil || m.entry.cacheable()))
}

// readThrough fills *dst with key's value from the in-memory cache, or by
// compute. The cache is read, and the hit or miss counted, only when
// cacheOK(m) holds; a computed value is published only when cacheOK(m)
// still holds once compute returns, so a value that degraded or failed
// verification on the way never reaches the cache. Publication is
// first-writer-wins: *dst ends up holding the value bound to key.
func readThrough[T any](r *runner, key dfg.Fingerprint, m *machineRun, dst *T, compute func() error) (hit bool, err error) {
	if r.cacheOK(m) {
		if c, ok := r.opt.Cache.Get(key); ok {
			r.metrics.CacheHit()
			*dst = c.(T)
			return true, nil
		}
		r.metrics.CacheMiss()
	}
	if err = compute(); err == nil && r.cacheOK(m) {
		c, _ := r.opt.Cache.Put(key, *dst)
		*dst = c.(T)
	}
	return false, err
}

// endSpan finishes the request span or one of its stage spans (m is nil
// for the request and compile spans) with that span's attributes. With no
// Observer attached it returns before building any, and the attributes
// live in a stack buffer, so span recording allocates only inside the
// recorder.
func (r *runner) endSpan(sp *obs.Span, err error, m *machineRun) {
	if r.rec == nil {
		return
	}
	var buf [9]obs.Attr
	attrs := buf[:0]
	switch {
	case sp.Kind == obs.KindRequest:
		attrs = append(attrs, obs.I("index", int64(r.res.Index)))
		if r.reqID != "" {
			attrs = append(attrs, obs.S("request_id", r.reqID))
		}
	case m == nil: // the compile stage
		attrs = append(attrs, obs.B("cache_hit", r.compileCached))
	default:
		attrs = append(attrs, obs.S("machine", m.cfg.Name))
		switch sp.Name {
		case StageSchedule:
			attrs = append(attrs, obs.B("cache_hit", m.mr.CacheHit))
		case StageSimulate:
			attrs = append(attrs, obs.B("cache_hit", m.timeCached))
		}
		attrs = append(attrs, obs.B("degraded", m.mr.Degraded))
		if t := m.times; sp.Name == StageSimulate && t != nil {
			attrs = append(attrs,
				obs.I("signals_sent", int64(t.SyncSignals)),
				obs.I("wait_stall_cycles", int64(t.SyncStalls)),
				obs.I("lbd_arcs", int64(t.SyncLBD)),
				obs.I("lfd_arcs", int64(t.SyncLFD)),
				obs.I("sync_cycles", int64(t.SyncTime)),
				obs.I("list_cycles", int64(t.ListTime)))
		}
	}
	r.rec.End(sp, err, attrs...)
}

// compile runs the compilation passes, through the compile memo when the
// request may use the cache: identical source text (or identically
// rendering parsed loops) shares one immutable compilation, trace included.
func (r *runner) compile(ctx context.Context, req Request) error {
	res := &r.res
	r.src = r.sourceOf(req)
	var key dfg.Fingerprint
	if r.useCache {
		key = sourceKey(r.src, r.compileSalt)
	}
	span := r.rec.Start(obs.KindStage, stageCompile, r.rspan)
	var ce *compileEntry
	hit, err := readThrough(r, key, nil, &ce, func() error {
		if err := r.probe(stageCompile); err != nil {
			return fmt.Errorf("pipeline: compile %s: %w", res.Name, err)
		}
		popts := r.opt.Compile
		popts.Tracer = r.metrics
		popts.FaultHook = r.opt.FaultHook
		popts.Request = res.Name
		popts.Observer = r.rec
		popts.ParentSpan = span
		pl := passes.New(popts)
		var pctx *passes.Context
		var err error
		if req.Loop != nil {
			pctx, err = pl.RunLoopCtx(ctx, req.Loop)
		} else {
			pctx, err = pl.RunSourceCtx(ctx, req.Source)
		}
		res.Trace, res.Diags = pctx.Trace, pctx.Diags
		if err != nil {
			// A deadline/cancellation that fired inside the pass manager is
			// a timeout like any other: count it and wrap it consistently.
			if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
				err = ctxErr(ctx, res.Name, r.metrics)
			}
			return err
		}
		ce = newCompileEntry(pctx, r.opt.Compile.Verify)
		r.metrics.LintFindings(int64(len(ce.lint)))
		de, di, dc := ce.analysis.Counts()
		r.metrics.ObserveDeps(int64(de), int64(di), int64(dc))
		return nil
	})
	r.compileCached = hit
	r.endSpan(&span, err, nil)
	if err != nil {
		return err
	}
	res.Loop, res.Analysis, res.SyncLoop = ce.loop, ce.analysis, ce.syncLoop
	res.Prog, res.Graph, res.Trace = ce.prog, ce.graph, ce.trace
	r.keys = r.problemKeys(ce.fp, res.N)
	res.Diags, res.Lint = ce.diags, ce.lint
	return nil
}

// machine runs one machine's schedule → check → simulate. The check stage
// runs only on fresh schedules: the schedule cache holds only sets that
// already passed it.
func (r *runner) machine(ctx context.Context, m *machineRun) error {
	if ctx.Err() != nil {
		return ctxErr(ctx, r.res.Name, r.metrics)
	}
	m.mr.Machine = m.cfg.Name
	m.mr.Key = r.keys.key(keySched, m.cfg)
	sspan := r.rec.Start(obs.KindStage, StageSchedule, r.rspan)
	hit, err := readThrough(r, m.mr.Key, m, &m.entry, func() error {
		err := r.schedule(m)
		r.endSpan(&sspan, err, m)
		if err == nil {
			err = r.check(m)
		}
		return err
	})
	if err != nil {
		return err
	}
	m.mr.CacheHit = hit
	m.entry.serve(m.mr, r.res.N)
	if hit {
		r.endSpan(&sspan, nil, m)
	}
	if ctx.Err() != nil {
		return ctxErr(ctx, r.res.Name, r.metrics)
	}

	// Simulate; timings additionally key on trip count and window.
	mspan := r.rec.Start(obs.KindStage, StageSimulate, r.rspan)
	m.timeCached, err = readThrough(r, r.keys.key(keyTime, m.cfg), m, &m.times, func() error {
		return r.simulate(m)
	})
	if err == nil {
		m.times.serve(m.mr)
		// Independent timing audit: the simulated total must cover at least
		// one full iteration and at least the closed-form lower bound
		// T = (n/d)(i-j) + l of the served schedule. A violation means the
		// simulator and the analytical model disagree about this schedule —
		// there is no better answer to fall back on, so the request fails.
		if terr := check.Err(check.VerifyTiming(m.mr.Sync, m.mr.SyncTime, r.res.N)); terr != nil {
			r.metrics.Error(StageVerify)
			err = fmt.Errorf("pipeline: verify %s on %s: %w", r.res.Name, m.cfg.Name, terr)
		}
	}
	if err == nil {
		// Write-through to the persistent tier: freshly simulated, verified,
		// non-degraded, cacheable results survive restarts. Failures are
		// counted by the store and never fail the request.
		if r.opt.Disk != nil && !m.timeCached && !m.mr.Degraded && m.entry.cacheable() {
			r.persistResult(m)
		}
		// Paper-level counters describe the schedule actually served (the
		// synchronization-aware one, or the fallback standing in for it).
		r.metrics.ObserveSim(int64(m.times.SyncSignals), int64(m.times.SyncStalls),
			int64(m.times.SyncLBD), int64(m.times.SyncLFD))
		r.metrics.ObserveUtil(m.times.syncUtil)
	}
	r.endSpan(&mspan, err, m)
	return err
}

// schedule builds the list, synchronization-aware and (under Options.Best)
// Best schedules of a fresh entry.
func (r *runner) schedule(m *machineRun) error {
	res, cfg := &r.res, m.cfg
	e := &schedEntry{backend: r.opt.backendName()}
	m.entry = e
	err := r.stage(StageSchedule, func() error {
		lst, err := r.sc.List(res.Graph, cfg, r.opt.Baseline)
		if err != nil {
			return err
		}
		// Clone: the entry may be cached and outlive the worker's scratch,
		// whose buffers the next call recycles.
		e.list = lst.Clone()
		// The synchronization-aware slot is served by the configured backend
		// (the paper's heuristic by default, resolved through the Scheduler
		// seam).
		sched, err := r.opt.backendScheduler(res.N)
		if err != nil {
			return err
		}
		if ss, ok := sched.(core.ScratchScheduler); ok {
			// Heuristic backends schedule into the worker scratch; only the
			// surviving schedule is materialized.
			s, err := ss.ScheduleScratch(r.sc, res.Graph, cfg)
			if err != nil {
				return err
			}
			e.sync = s.Clone()
		} else {
			out, err := sched.Schedule(res.Graph, cfg)
			if err != nil {
				return err
			}
			e.sync = out.Schedule
			e.predictedT = out.T
			e.optimal = out.Optimal
			e.lowerBound = out.LowerBound
			e.searchNodes = out.Nodes
			e.note = out.Note
		}
		e.backend = sched.Name()
		if e.predictedT == 0 && e.sync != nil {
			// Heuristic backends attach no objective; report the closed-form
			// prediction for the served schedule.
			e.predictedT = model.Predict(e.sync, res.N)
			e.predictedAtN = res.N
		}
		// Post-hoc validation of the synchronization-aware schedule: a
		// scheduler bug degrades the answer, it does not ship an invalid
		// schedule.
		if err := e.sync.Validate(); err != nil {
			return fmt.Errorf("%s schedule failed validation: %w", e.backend, err)
		}
		if r.opt.Best {
			b, err := r.sc.Best(res.Graph, cfg)
			if err != nil {
				return err
			}
			e.best = b.Clone()
		}
		return nil
	})
	if err != nil {
		return r.degrade(m, StageSchedule, err)
	}
	e.serve(m.mr, res.N)
	return nil
}

// check independently verifies every freshly built schedule — organic or
// fallback — before it is served or published: internal/check re-derives
// the dependence edges from the compiled code (sharing no code with the
// schedulers) and re-checks the synchronization conditions, resource
// feasibility and deadlock freedom.
func (r *runner) check(m *machineRun) error {
	span := r.rec.Start(obs.KindStage, StageVerify, r.rspan)
	err := r.stage(StageVerify, func() error {
		for _, s := range []*core.Schedule{m.entry.list, m.entry.sync, m.entry.best} {
			if s == nil {
				continue
			}
			if err := r.verify(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		r.metrics.Rejected()
		err = r.degrade(m, StageVerify, err)
	} else {
		r.metrics.Verified()
	}
	r.endSpan(&span, err, m)
	return err
}

// simulate times m's list and synchronization-aware schedules (and Best)
// into m.times. Under Options.Utilization the runs are traced and the
// attribution books are verified against the timing counters; otherwise
// this is plain sim.Time.
func (r *runner) simulate(m *machineRun) error {
	e, te := m.entry, &timeEntry{}
	timeOne := func(s *core.Schedule) (sim.Timing, *sim.Utilization, error) {
		if !r.opt.Utilization {
			tm, err := sim.Time(s, r.simOpt)
			return tm, nil, err
		}
		tm, u, err := sim.Utilize(s, r.simOpt)
		if err == nil {
			u.Loop = r.res.Name
		}
		return tm, u, err
	}
	err := r.stage(StageSimulate, func() error {
		lt, lu, err := timeOne(e.list)
		if err != nil {
			return err
		}
		st, su, err := timeOne(e.sync)
		if err != nil {
			return err
		}
		te.timeCounters = countersOf(lt, st, e.list, e.sync)
		te.listUtil, te.syncUtil = lu, su
		if e.best != nil {
			bt, err := sim.Time(e.best, r.simOpt)
			if err != nil {
				return err
			}
			te.BestTime = bt.Total
		}
		return nil
	})
	if err != nil {
		return r.degrade(m, StageSimulate, err)
	}
	m.times = te
	return nil
}

// verify runs the independent verifier on s with the request's prepared
// edges.
func (r *runner) verify(s *core.Schedule) error {
	if r.verifier == nil {
		r.verifier = check.NewVerifier(r.res.Prog)
	}
	return check.Err(r.verifier.Verify(s))
}

// degrade applies the one degradation rule (see the package doc) to the
// failure err of m's schedule, check or simulate stage. The first failure
// swaps in the program-order fallback, redoing the failed stage's work and
// every earlier stage's — unprobed, untimed, and not counted as Verified or
// Rejected — then flags the result Degraded, clears CacheHit and counts one
// Fallback. Degrading at schedule keeps an organic list schedule that
// passed Validate. A failure while already degraded, or a failing
// fallback, fails the request.
func (r *runner) degrade(m *machineRun, stage string, err error) error {
	verb := stage
	if stage == StageVerify {
		verb = "verify"
	}
	if m.mr.Degraded {
		return fmt.Errorf("pipeline: %s %s on %s: %w", verb, r.res.Name, m.cfg.Name, err)
	}
	fb, ferr := fallbackSchedule(r.res.Graph, m.cfg)
	if ferr == nil && stage != StageSchedule {
		ferr = r.verify(fb)
	}
	var ft sim.Timing
	if ferr == nil && stage == StageSimulate {
		ft, ferr = sim.Time(fb, r.simOpt)
	}
	if ferr != nil {
		return fmt.Errorf("pipeline: %s %s on %s: %v (fallback failed: %w)",
			verb, r.res.Name, m.cfg.Name, err, ferr)
	}
	list := fb
	if stage == StageSchedule && m.entry.list != nil && m.entry.list.Validate() == nil {
		list = m.entry.list
	}
	m.entry = &schedEntry{list: list, sync: fb, backend: m.entry.backend,
		predictedT: model.Predict(fb, r.res.N)}
	if r.opt.Best {
		m.entry.best = fb
	}
	m.entry.serve(m.mr, r.res.N)
	if stage == StageSimulate {
		m.times = &timeEntry{timeCounters: countersOf(ft, ft, fb, fb)}
		if r.opt.Best {
			m.times.BestTime = ft.Total
		}
	}
	m.mr.Degraded = true
	m.mr.CacheHit = false
	m.mr.DegradedReason = err.Error()
	r.metrics.Fallback()
	return nil
}

// arcSplit partitions a schedule's synchronization pairs into lexically
// backward and forward arcs.
func arcSplit(s *core.Schedule) (lbd, lfd int) {
	lbd = s.NumLBD()
	for v := range s.Prog.Instrs {
		if s.Prog.SendOf(v) >= 0 {
			lfd++
		}
	}
	return lbd, lfd - lbd
}
