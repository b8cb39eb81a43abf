package pipeline

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestPrometheusGolden pins the full exposition for a deterministic registry:
// metric names, HELP/TYPE headers, cumulative histogram buckets, and the
// counter/gauge values all come out exactly as written here.
func TestPrometheusGolden(t *testing.T) {
	m := NewMetrics()
	m.Observe(StageSchedule, 5*time.Microsecond)
	m.Observe(StageSchedule, 50*time.Millisecond)
	m.Error(StageSchedule)
	m.CacheHit()
	m.CacheHit()
	m.CacheMiss()
	m.Panic()
	m.Timeout()
	m.Fallback()
	m.Verified()
	m.Verified()
	m.Rejected()
	m.LintFindings(5)
	m.ObserveDeps(6, 2, 1)
	m.ObserveSim(10, 20, 3, 4)
	m.WorkerStart()
	m.QueueAdd(2)

	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	const want = `# HELP doacross_stage_duration_seconds Latency of pipeline stages and compilation passes.
# TYPE doacross_stage_duration_seconds histogram
doacross_stage_duration_seconds_bucket{stage="schedule",le="1e-05"} 1
doacross_stage_duration_seconds_bucket{stage="schedule",le="0.0001"} 1
doacross_stage_duration_seconds_bucket{stage="schedule",le="0.001"} 1
doacross_stage_duration_seconds_bucket{stage="schedule",le="0.01"} 1
doacross_stage_duration_seconds_bucket{stage="schedule",le="0.1"} 2
doacross_stage_duration_seconds_bucket{stage="schedule",le="1"} 2
doacross_stage_duration_seconds_bucket{stage="schedule",le="+Inf"} 2
doacross_stage_duration_seconds_sum{stage="schedule"} 0.050005
doacross_stage_duration_seconds_count{stage="schedule"} 2
# HELP doacross_stage_runs_total Completed executions per stage.
# TYPE doacross_stage_runs_total counter
doacross_stage_runs_total{stage="schedule"} 2
# HELP doacross_stage_errors_total Failed executions per stage.
# TYPE doacross_stage_errors_total counter
doacross_stage_errors_total{stage="schedule"} 1
# HELP doacross_cache_hits_total Schedule-cache hits.
# TYPE doacross_cache_hits_total counter
doacross_cache_hits_total 2
# HELP doacross_cache_misses_total Schedule-cache misses.
# TYPE doacross_cache_misses_total counter
doacross_cache_misses_total 1
# HELP doacross_cache_evictions_total Schedule-cache entries evicted by the capacity bound.
# TYPE doacross_cache_evictions_total counter
doacross_cache_evictions_total 0
# HELP doacross_panics_recovered_total Panics recovered inside workers, stages and passes.
# TYPE doacross_panics_recovered_total counter
doacross_panics_recovered_total 1
# HELP doacross_request_timeouts_total Requests lost to deadlines or cancellation.
# TYPE doacross_request_timeouts_total counter
doacross_request_timeouts_total 1
# HELP doacross_fallbacks_total Requests served by the verified program-order fallback schedule.
# TYPE doacross_fallbacks_total counter
doacross_fallbacks_total 1
# HELP doacross_schedules_verified_total Schedule sets accepted by the independent post-schedule verifier.
# TYPE doacross_schedules_verified_total counter
doacross_schedules_verified_total 2
# HELP doacross_schedules_rejected_total Schedule sets the independent post-schedule verifier refused to serve.
# TYPE doacross_schedules_rejected_total counter
doacross_schedules_rejected_total 1
# HELP doacross_lint_findings_total Synchronization-linter findings across fresh compilations.
# TYPE doacross_lint_findings_total counter
doacross_lint_findings_total 5
# HELP doacross_dep_exact_total Dependence pairs proven exact (distances enumerated with witnesses) across fresh compilations.
# TYPE doacross_dep_exact_total counter
doacross_dep_exact_total 6
# HELP doacross_dep_independent_total Dependence pairs proven independent (GCD or bound-separation certificate) across fresh compilations.
# TYPE doacross_dep_independent_total counter
doacross_dep_independent_total 2
# HELP doacross_dep_conservative_total Dependence pairs assumed conservative (undecidable residue) across fresh compilations.
# TYPE doacross_dep_conservative_total counter
doacross_dep_conservative_total 1
# HELP doacross_sim_signals_sent_total Send_Signal issues across served simulations (paper-level sync traffic).
# TYPE doacross_sim_signals_sent_total counter
doacross_sim_signals_sent_total 10
# HELP doacross_sim_wait_stall_cycles_total Cycles lost to Wait_Signal stalls across served simulations.
# TYPE doacross_sim_wait_stall_cycles_total counter
doacross_sim_wait_stall_cycles_total 20
# HELP doacross_sched_lbd_arcs_total Synchronization arcs left lexically backward by served schedules.
# TYPE doacross_sched_lbd_arcs_total counter
doacross_sched_lbd_arcs_total 3
# HELP doacross_sched_lfd_arcs_total Synchronization arcs placed lexically forward by served schedules.
# TYPE doacross_sched_lfd_arcs_total counter
doacross_sched_lfd_arcs_total 4
# HELP doacross_workers_in_flight Requests currently executing inside a worker.
# TYPE doacross_workers_in_flight gauge
doacross_workers_in_flight 1
# HELP doacross_queue_depth Requests enqueued but not yet picked up by a worker.
# TYPE doacross_queue_depth gauge
doacross_queue_depth 2
# HELP doacross_cache_entries Entries resident in the attached schedule cache.
# TYPE doacross_cache_entries gauge
doacross_cache_entries 0
`
	if got := buf.String(); got != want {
		t.Errorf("exposition drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPrometheusCacheGauges: an attached bounded cache surfaces occupancy and
// evictions in the exposition.
func TestPrometheusCacheGauges(t *testing.T) {
	m := NewMetrics()
	c := NewCacheBounded(cacheShards) // one entry per shard
	key := func(shard, n byte) [32]byte {
		var k [32]byte
		k[0], k[1] = shard, n
		return k
	}
	c.Put(key(3, 0), "a")
	c.Put(key(3, 1), "b") // same shard: evicts "a"
	m.AttachCache(c)

	var buf bytes.Buffer
	m.WritePrometheus(&buf)
	out := buf.String()
	for _, line := range []string{
		"doacross_cache_entries 1",
		"doacross_cache_evictions_total 1",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestQuantile(t *testing.T) {
	// All 100 samples in the 100µs..1ms bucket: every quantile interpolates
	// inside it, monotonically.
	var s StageStats
	s.Count = 100
	s.Buckets[2] = 100
	s.Max = 900 * time.Microsecond
	p50, p95, p99 := s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99)
	if p50 < 100*time.Microsecond || p99 > time.Millisecond {
		t.Fatalf("quantiles escaped the bucket: p50=%v p99=%v", p50, p99)
	}
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles not monotonic: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	// Log-linear midpoint of [100µs, 1ms] is the geometric mean ≈ 316µs.
	if p50 < 250*time.Microsecond || p50 > 400*time.Microsecond {
		t.Fatalf("p50 = %v, want ≈316µs (log-linear midpoint)", p50)
	}

	// Split distribution: 90 fast, 10 slow — p50 stays in the fast bucket,
	// p99 lands in the slow one.
	var d StageStats
	d.Count = 100
	d.Buckets[0] = 90
	d.Buckets[4] = 10
	d.Max = 80 * time.Millisecond
	if q := d.Quantile(0.50); q > 10*time.Microsecond {
		t.Fatalf("p50 = %v, want within the fast bucket", q)
	}
	if q := d.Quantile(0.99); q < 10*time.Millisecond || q > 100*time.Millisecond {
		t.Fatalf("p99 = %v, want within the slow bucket", q)
	}

	// Overflow bucket interpolates up to the observed max.
	var o StageStats
	o.Count = 10
	o.Buckets[numBuckets-1] = 10
	o.Max = 5 * time.Second
	if q := o.Quantile(0.99); q < time.Second || q > 5*time.Second {
		t.Fatalf("overflow p99 = %v, want in [1s, 5s]", q)
	}

	// Degenerate cases.
	var z StageStats
	if z.Quantile(0.5) != 0 {
		t.Fatal("empty stage should report 0")
	}
	if s.Quantile(-1) > s.Quantile(0) || s.Quantile(2) < s.Quantile(1) {
		t.Fatal("out-of-range q not clamped")
	}
}

func TestStatsQuantileByStage(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 50; i++ {
		m.Observe(StageSimulate, 3*time.Microsecond)
	}
	st := m.Stats()
	if q := st.Quantile(StageSimulate, 0.95); q <= 0 || q > 10*time.Microsecond {
		t.Fatalf("p95 = %v, want in the first bucket", q)
	}
	if q := st.Quantile("never-ran", 0.95); q != 0 {
		t.Fatalf("unknown stage quantile = %v, want 0", q)
	}
	// The String report carries the percentile line.
	if s := st.String(); !strings.Contains(s, "p50") || !strings.Contains(s, "p99") {
		t.Fatalf("Stats.String missing percentiles:\n%s", s)
	}
}
