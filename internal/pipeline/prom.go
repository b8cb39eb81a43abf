package pipeline

import (
	"io"
	"strconv"

	"doacross/internal/obs"
)

// Prometheus text-format exposition of the metrics registry. The per-stage
// latency buckets synthesize native Prometheus histograms (the bucket
// bounds become cumulative `le` labels), the cache/robustness counters and
// the liveness/cache gauges are exported under stable doacross_* names, and
// the paper-level simulation counters ride along so dashboards can plot
// Send_Signal traffic and wait-stall cycles next to wall-clock latency.

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4). Histogram buckets are cumulative per the format;
// the registry's per-stage buckets are disjoint, so they are summed on the
// way out.
func (s Stats) WritePrometheus(w io.Writer) {
	p := obs.Prom{W: w}
	const dur = "doacross_stage_duration_seconds"
	p.Family(dur, "histogram", "Latency of pipeline stages and compilation passes.")
	for _, st := range s.Stages {
		cum := int64(0)
		for i, bound := range bucketBounds {
			cum += st.Buckets[i]
			p.Int(dur+"_bucket", cum, "stage", st.Stage, "le", strconv.FormatFloat(bound.Seconds(), 'g', -1, 64))
		}
		p.Int(dur+"_bucket", st.Count, "stage", st.Stage, "le", "+Inf")
		p.Float(dur+"_sum", st.Total.Seconds(), "stage", st.Stage)
		p.Int(dur+"_count", st.Count, "stage", st.Stage)
	}

	p.Family("doacross_stage_runs_total", "counter", "Completed executions per stage.")
	for _, st := range s.Stages {
		p.Int("doacross_stage_runs_total", st.Count, "stage", st.Stage)
	}
	p.Family("doacross_stage_errors_total", "counter", "Failed executions per stage.")
	for _, st := range s.Stages {
		p.Int("doacross_stage_errors_total", st.Errors, "stage", st.Stage)
	}

	p.Counter("doacross_cache_hits_total", "Schedule-cache hits.", s.CacheHits)
	p.Counter("doacross_cache_misses_total", "Schedule-cache misses.", s.CacheMisses)
	p.Counter("doacross_cache_evictions_total", "Schedule-cache entries evicted by the capacity bound.", s.CacheEvictions)
	p.Counter("doacross_panics_recovered_total", "Panics recovered inside workers, stages and passes.", s.Panics)
	p.Counter("doacross_request_timeouts_total", "Requests lost to deadlines or cancellation.", s.Timeouts)
	p.Counter("doacross_fallbacks_total", "Requests served by the verified program-order fallback schedule.", s.Fallbacks)
	p.Counter("doacross_schedules_verified_total", "Schedule sets accepted by the independent post-schedule verifier.", s.Verified)
	p.Counter("doacross_schedules_rejected_total", "Schedule sets the independent post-schedule verifier refused to serve.", s.Rejected)
	p.Counter("doacross_lint_findings_total", "Synchronization-linter findings across fresh compilations.", s.LintFindings)
	p.Counter("doacross_dep_exact_total", "Dependence pairs proven exact (distances enumerated with witnesses) across fresh compilations.", s.DepExact)
	p.Counter("doacross_dep_independent_total", "Dependence pairs proven independent (GCD or bound-separation certificate) across fresh compilations.", s.DepIndependent)
	p.Counter("doacross_dep_conservative_total", "Dependence pairs assumed conservative (undecidable residue) across fresh compilations.", s.DepConservative)
	p.Counter("doacross_sim_signals_sent_total", "Send_Signal issues across served simulations (paper-level sync traffic).", s.SignalsSent)
	p.Counter("doacross_sim_wait_stall_cycles_total", "Cycles lost to Wait_Signal stalls across served simulations.", s.WaitStallCycles)
	p.Counter("doacross_sched_lbd_arcs_total", "Synchronization arcs left lexically backward by served schedules.", s.LBDArcs)
	p.Counter("doacross_sched_lfd_arcs_total", "Synchronization arcs placed lexically forward by served schedules.", s.LFDArcs)
	if s.MachineSlotsTotal > 0 {
		p.Counter("doacross_sim_issue_slots_total", "Issue slots offered by the machine (procs x cycles x width) across traced served simulations.", s.MachineSlotsTotal)
		p.Counter("doacross_sim_issue_slots_used_total", "Issue slots actually filled by an instruction across traced served simulations.", s.MachineSlotsUsed)
		const cycles = "doacross_sim_machine_cycles_total"
		p.Family(cycles, "counter", "Processor cycles across traced served simulations, split by attributed cause.")
		p.Int(cycles, s.MachineCyclesIssued, "cause", "issued")
		p.Int(cycles, s.MachineCyclesSyncWait, "cause", "sync_wait")
		p.Int(cycles, s.MachineCyclesWindowWait, "cause", "window_wait")
		p.Int(cycles, s.MachineCyclesDrain, "cause", "drain")
		const empty = "doacross_sim_empty_slots_total"
		p.Family(empty, "counter", "Empty issue slots on cycles that did issue, split by the static reason the slot stayed empty.")
		p.Int(empty, s.MachineEmptyRAW, "cause", "raw")
		p.Int(empty, s.MachineEmptyFUBusy, "cause", "fu_busy")
		p.Int(empty, s.MachineEmptyIssueWidth, "cause", "issue_width")
		p.Int(empty, s.MachineEmptyDrain, "cause", "drain")
	}
	p.Gauge("doacross_workers_in_flight", "Requests currently executing inside a worker.", s.InFlight)
	p.Gauge("doacross_queue_depth", "Requests enqueued but not yet picked up by a worker.", s.QueueDepth)
	p.Gauge("doacross_cache_entries", "Entries resident in the attached schedule cache.", s.CacheEntries)
}

// WritePrometheus snapshots the registry and writes the exposition; the
// obs.Server /metrics hook is exactly this method.
func (m *Metrics) WritePrometheus(w io.Writer) { m.Stats().WritePrometheus(w) }
