package doacross_test

// The hot-path benchmark entry points tracked by BENCH_hotpath.json. The
// workloads live in internal/hotbench so `go test -bench 'Batch64|Hot'`
// and the snapshot emitter (`go run ./cmd/report -hotpath-json`) measure
// identical code. This file is in the external test package because
// hotbench imports doacross itself.

import (
	"fmt"
	"testing"

	"doacross/internal/hotbench"
	"doacross/internal/scheditest"
)

// BenchmarkBatch64 compares scheduling the 64-loop corpus one loop at a time
// (the pre-pipeline code path: compile, schedule both ways, simulate,
// serially, no reuse) against the batch pipeline with 8 workers and a
// persistent schedule cache (the steady-state service shape). The pipeline
// sub-benchmark reports the cache hit rate; stage latencies are available
// via -stats on cmd/benchtab and cmd/schedcmp.
func BenchmarkBatch64(b *testing.B) {
	b.Run("serial", hotbench.SerialBatch)
	b.Run("pipeline-j8", hotbench.PipelineBatch)
}

// BenchmarkHotCompileSchedule is the single-loop compile→schedule hot path:
// parse, dependence analysis, synchronization insertion, lowering, graph
// build, then a sync schedule into a warm Scratch.
func BenchmarkHotCompileSchedule(b *testing.B) { hotbench.CompileSchedule(b) }

// BenchmarkHotScheduleWarm is the steady-state scheduling kernel alone: a
// compiled program rescheduled into a warm Scratch. The loop body allocates
// nothing (pinned to 0 by TestScratchScheduleAllocs).
func BenchmarkHotScheduleWarm(b *testing.B) { hotbench.ScheduleWarm(b) }

// BenchmarkHotPipelineCachedHit is a steady-state batch request whose
// schedule is already cached: one request through a warm pipeline, measuring
// the per-request overhead when every stage after compile is a cache hit.
func BenchmarkHotPipelineCachedHit(b *testing.B) { hotbench.PipelineCachedHit(b) }

// BenchmarkHotSim measures the recurrence simulator on the Fig. 1 sync
// schedule untraced (the pipeline's hot path — the nil tracer hook must
// cost nothing, pinned by TestSimNilTracerAllocs) against the same run with
// the cycle-accurate tracer attached and its attribution books verified
// (the cost of -why, -machine-obs and the utilization audit).
func BenchmarkHotSim(b *testing.B) {
	b.Run("untraced", hotbench.SimUntraced)
	b.Run("traced", hotbench.SimTraced)
}

// BenchmarkHotVerify measures the independent verifier on the Fig. 1 sync
// schedule in its one-shot form (check.Verify, deriving the edges on every
// call) against a check.Verifier prepared once for the program (the form
// the batch pipeline uses for every machine and schedule of a request).
func BenchmarkHotVerify(b *testing.B) {
	b.Run("oneshot", hotbench.VerifyOneShot)
	b.Run("prepared", hotbench.VerifyPrepared)
}

// BenchmarkHotSizeSweep measures fresh default-options requests for loops
// of 10 to 80 statements: one op is the six loopgen shapes' loops of one
// size, each compiled, linted, scheduled, verified and simulated through
// its own pipeline.Run (see scheditest.SweepSources).
func BenchmarkHotSizeSweep(b *testing.B) {
	for _, stmts := range scheditest.SweepStmts {
		b.Run(fmt.Sprintf("stmts=%d", stmts), func(b *testing.B) { hotbench.SizeSweep(b, stmts) })
	}
}
