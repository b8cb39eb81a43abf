// Package server is the scheduling daemon over the batch pipeline: a
// long-running HTTP/JSON service that turns the library into shared
// infrastructure. Around each request it adds what a batch run never
// needed — request coalescing (concurrent identical requests that miss the
// memory cache share one computation, see pipeline.Group; a memory hit is
// answered on its handler goroutine), admission control and load shedding
// (per-tenant token buckets, a bounded admission queue, a per-backend
// circuit breaker), a crash-safe persistent cache tier (pipeline.DiskStore)
// so restarts come up warm with verified schedules, and a graceful drain on
// SIGTERM. Client is the matching retrying client.
package server

import "doacross/internal/sim"

// ScheduleRequest is the POST /v1/schedule body: one loop to schedule
// under the daemon's configured options. The optional Backend field
// overrides the scheduling backend per request (see passes.BackendNames);
// requests for different backends never coalesce and trip separate
// circuit breakers.
type ScheduleRequest struct {
	// Name labels the loop in responses and logs (defaults to "loop").
	Name string `json:"name,omitempty"`
	// Source is the DOACROSS loop source text.
	Source string `json:"source"`
	// N is the trip count to simulate (0 = the daemon's default).
	N int `json:"n,omitempty"`
	// Backend overrides the scheduling backend ("" = the daemon's).
	Backend string `json:"backend,omitempty"`
}

// MachineResult is one machine configuration's outcome in a response.
type MachineResult struct {
	Machine        string  `json:"machine"`
	Key            string  `json:"key"`
	ListTime       int     `json:"list_time"`
	SyncTime       int     `json:"sync_time"`
	BestTime       int     `json:"best_time,omitempty"`
	Improvement    float64 `json:"improvement_pct"`
	Backend        string  `json:"backend"`
	PredictedT     int     `json:"predicted_t"`
	Optimal        bool    `json:"optimal,omitempty"`
	LowerBound     int     `json:"lower_bound,omitempty"`
	CacheHit       bool    `json:"cache_hit"`
	Degraded       bool    `json:"degraded,omitempty"`
	DegradedReason string  `json:"degraded_reason,omitempty"`
	SyncSignals    int     `json:"sync_signals"`
	StallCycles    int     `json:"stall_cycles"`
	// Utilization is the machine-level utilization report of the served
	// (synchronization-aware) schedule's traced simulation — present only
	// when the daemon runs with pipeline utilization tracing and the
	// timing was not served from an untraced cache entry.
	Utilization *sim.Utilization `json:"utilization,omitempty"`
}

// ScheduleResponse is the 200 body of POST /v1/schedule.
type ScheduleResponse struct {
	Name string `json:"name"`
	// N is the trip count the loop was simulated with.
	N int `json:"n"`
	// Key is the content address of the scheduling problem — equal keys
	// mean byte-identical results, and are what concurrent duplicates
	// coalesce on.
	Key string `json:"key"`
	// RequestID echoes the request's correlation ID (the client's
	// X-Request-Id, or the one the daemon minted), the join key for the
	// daemon's structured logs and flight-recorder entries.
	RequestID string `json:"request_id,omitempty"`
	// Coalesced reports that this response was served by another caller's
	// in-flight computation of the same key.
	Coalesced bool `json:"coalesced"`
	// Machines holds one result per configured machine, in order.
	Machines []MachineResult `json:"machines"`
	// Lint carries the synchronization linter's advisory findings.
	Lint []string `json:"lint,omitempty"`
}

// ErrorResponse is the body of every non-200 answer.
type ErrorResponse struct {
	// Error describes what went wrong.
	Error string `json:"error"`
	// RequestID echoes the request's correlation ID, when one was resolved
	// before the failure.
	RequestID string `json:"request_id,omitempty"`
	// Reason classifies sheds: "draining", "ratelimit", "queue", "breaker".
	Reason string `json:"reason,omitempty"`
	// Diagnostics carries positioned compile diagnostics on 400s.
	Diagnostics []string `json:"diagnostics,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}
