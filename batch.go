package doacross

import (
	"context"
	"fmt"

	"doacross/internal/core"
	"doacross/internal/obs"
	"doacross/internal/pipeline"
)

// Batch scheduling: the facade over internal/pipeline, the worker-pool
// service that compiles, schedules and simulates many loops concurrently
// with a content-addressed schedule cache and an embedded metrics registry.
//
//	cache := doacross.NewScheduleCache()
//	batch, err := doacross.ScheduleAll(sources, doacross.BatchOptions{
//		Workers:  8,
//		Machines: doacross.PaperMachines(),
//		Cache:    cache,
//	})
//	fmt.Print(batch.Stats)
type (
	// Batch is the result of one batch run: per-loop results in request
	// order plus a metrics snapshot.
	Batch = pipeline.Batch
	// BatchOptions configures a batch run (workers, machines, trip count,
	// baseline, ablation knobs, cache, metrics).
	BatchOptions = pipeline.Options
	// BatchRequest is one loop to schedule (source text or parsed Loop).
	BatchRequest = pipeline.Request
	// BatchLoop is one loop's batch result.
	BatchLoop = pipeline.LoopResult
	// BatchMachineResult is one loop's outcome on one machine.
	BatchMachineResult = pipeline.MachineResult
	// BatchStats is a snapshot of the pipeline metrics registry.
	BatchStats = pipeline.Stats
	// BatchMetrics is the shared metrics registry type.
	BatchMetrics = pipeline.Metrics
	// ScheduleCache is the sharded content-addressed schedule cache. Keys
	// fingerprint the loop's data-flow graph plus the machine configuration
	// and scheduler options, so structurally repeated loops — trip-count or
	// machine sweeps over one corpus — skip scheduling entirely.
	ScheduleCache = pipeline.Cache
	// ListPriority selects the baseline list scheduler's priority.
	ListPriority = core.ListPriority
	// TraceRecorder is the span recorder of the observability layer: set
	// one as BatchOptions.Observer and every batch, request, stage and
	// compilation pass records a span into its bounded lock-free ring
	// buffer. Snapshot() returns the finished spans; WriteChromeTrace
	// exports them as Chrome trace_event JSON (loadable in Perfetto) and
	// WriteJSONL as a structured event log. A nil recorder disables
	// tracing at the cost of one nil check per would-be span.
	TraceRecorder = obs.Recorder
	// TraceSpan is one recorded span (batch → request → stage → pass).
	TraceSpan = obs.Span
	// TraceSpanKind is a span's level in the hierarchy.
	TraceSpanKind = obs.Kind
	// AdminServer is the HTTP observability surface (/metrics, /stats,
	// /trace, /healthz, /debug/pprof) over a recorder and a metrics
	// registry.
	AdminServer = obs.Server
)

// Baseline priorities for BatchOptions.Baseline.
const (
	// BaselineProgramOrder ranks ready instructions by source position.
	BaselineProgramOrder = core.ProgramOrder
	// BaselineCriticalPath ranks by longest latency-weighted path to a sink.
	BaselineCriticalPath = core.CriticalPath
)

// NewScheduleCache returns an empty schedule cache, shareable across
// batches and goroutines.
func NewScheduleCache() *ScheduleCache { return pipeline.NewCache() }

// NewBatchMetrics returns an empty metrics registry; pass the same registry
// to several batches to aggregate their counters.
func NewBatchMetrics() *BatchMetrics { return pipeline.NewMetrics() }

// NewTraceRecorder returns a span recorder whose ring holds at least n
// spans (n <= 0 picks the default capacity). Pass it as
// BatchOptions.Observer to trace a batch end to end.
func NewTraceRecorder(n int) *TraceRecorder { return obs.NewRecorder(n) }

// NewBoundedScheduleCache returns a schedule cache holding at most capacity
// entries; over the bound, arbitrary entries are evicted (and counted in
// BatchStats.CacheEvictions). Every cached value is a pure function of its
// key, so eviction costs a recompute, never correctness.
func NewBoundedScheduleCache(capacity int) *ScheduleCache {
	return pipeline.NewCacheBounded(capacity)
}

// NewAdminServer wires an admin server over a metrics registry and a span
// recorder (either may be nil; the corresponding endpoints then 404).
// Start it with Start(addr string) — e.g. ":8080" or ":0" — and stop it
// with Close.
func NewAdminServer(metrics *BatchMetrics, rec *TraceRecorder) *AdminServer {
	srv := &AdminServer{Recorder: rec}
	if metrics != nil {
		srv.Metrics = metrics.WritePrometheus
		srv.Stats = func() any { return metrics.Stats() }
	}
	return srv
}

// ScheduleAll compiles, schedules and simulates every source loop through
// the concurrent batch pipeline. Per-loop failures are reported in
// Batch.Loops[i].Err (see Batch.FirstErr); ScheduleAll only fails on
// unusable options.
func ScheduleAll(sources []string, opt BatchOptions) (*Batch, error) {
	return ScheduleAllContext(context.Background(), sources, opt)
}

// ScheduleAllContext is ScheduleAll under a cancellation context, threaded
// through the worker pool and checked between the compile, schedule and
// simulate stages of every request. Combine with BatchOptions.Deadline /
// RequestTimeout for time-bounded batches: cut-off requests fail
// individually while completed results are returned in request order.
func ScheduleAllContext(ctx context.Context, sources []string, opt BatchOptions) (*Batch, error) {
	reqs := make([]BatchRequest, len(sources))
	for i, src := range sources {
		reqs[i] = BatchRequest{Name: fmt.Sprintf("loop%d", i), Source: src}
	}
	return pipeline.RunContext(ctx, reqs, opt)
}

// ScheduleAllLoops is ScheduleAll over already parsed loops.
func ScheduleAllLoops(loops []*Loop, opt BatchOptions) (*Batch, error) {
	return ScheduleAllLoopsContext(context.Background(), loops, opt)
}

// ScheduleAllLoopsContext is ScheduleAllLoops under a cancellation context.
func ScheduleAllLoopsContext(ctx context.Context, loops []*Loop, opt BatchOptions) (*Batch, error) {
	reqs := make([]BatchRequest, len(loops))
	for i, l := range loops {
		reqs[i] = BatchRequest{Name: fmt.Sprintf("loop%d", i), Loop: l}
	}
	return pipeline.RunContext(ctx, reqs, opt)
}

// CompareAll runs the paper's list-vs-new experiment for every source loop
// on machine m with trip count n, through the batch pipeline. It returns
// one Comparison per loop in input order plus the underlying batch (for
// schedules and stats). The first per-loop failure aborts with an error.
func CompareAll(sources []string, m Machine, n int, opt BatchOptions) ([]Comparison, *Batch, error) {
	return CompareAllContext(context.Background(), sources, m, n, opt)
}

// CompareAllContext is CompareAll under a cancellation context.
func CompareAllContext(ctx context.Context, sources []string, m Machine, n int, opt BatchOptions) ([]Comparison, *Batch, error) {
	opt.Machines = []Machine{m}
	opt.N = n
	batch, err := ScheduleAllContext(ctx, sources, opt)
	if err != nil {
		return nil, nil, err
	}
	if err := batch.FirstErr(); err != nil {
		return nil, batch, err
	}
	comps := make([]Comparison, len(batch.Loops))
	for i := range batch.Loops {
		lr := &batch.Loops[i]
		mr := lr.Machines[0]
		comps[i] = Comparison{
			Machine:     mr.Machine,
			N:           lr.N,
			ListTime:    mr.ListTime,
			SyncTime:    mr.SyncTime,
			Improvement: mr.Improvement,
			ListLBD:     mr.ListLBD,
			SyncLBD:     mr.SyncLBD,
			List:        mr.List,
			Sync:        mr.Sync,
		}
	}
	return comps, batch, nil
}
