package server

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// serverMetrics are the daemon-level counters, kept alongside (not inside)
// the pipeline's registry: the pipeline counts compile/schedule/simulate
// work, the daemon counts what happened to requests before and after the
// pipeline ran — coalescing, shedding, breaker trips, response classes.
type serverMetrics struct {
	requests     atomic.Int64 // /v1/schedule requests received
	responsesOK  atomic.Int64 // 200s served
	clientErrors atomic.Int64 // 4xx (bad JSON, bad source, unknown backend)
	serverErrors atomic.Int64 // 5xx other than sheds
	timeouts     atomic.Int64 // 504s (caller's deadline expired)
	flights      atomic.Int64 // singleflight leaders (computations started)
	coalesced    atomic.Int64 // followers served by another caller's flight
	shedRate     atomic.Int64 // 429s: per-tenant token bucket empty
	shedQueue    atomic.Int64 // 503s: admission queue full or wait cut off
	shedBreaker  atomic.Int64 // 503s: backend circuit open
	shedDraining atomic.Int64 // 503s: daemon draining for shutdown
	netFaults    atomic.Int64 // injected network faults served as 503s
}

// Stats is the JSON-marshalable snapshot of the daemon counters for /stats.
type Stats struct {
	Requests     int64 `json:"requests"`
	ResponsesOK  int64 `json:"responses_ok"`
	ClientErrors int64 `json:"client_errors"`
	ServerErrors int64 `json:"server_errors"`
	Timeouts     int64 `json:"timeouts"`
	Flights      int64 `json:"flights"`
	Coalesced    int64 `json:"coalesced"`
	ShedRate     int64 `json:"shed_ratelimit"`
	ShedQueue    int64 `json:"shed_queue"`
	ShedBreaker  int64 `json:"shed_breaker"`
	ShedDraining int64 `json:"shed_draining"`
	BreakerOpens int64 `json:"breaker_opens"`
	NetFaults    int64 `json:"net_faults"`
}

func (m *serverMetrics) snapshot(breakerOpens int64) Stats {
	return Stats{
		Requests:     m.requests.Load(),
		ResponsesOK:  m.responsesOK.Load(),
		ClientErrors: m.clientErrors.Load(),
		ServerErrors: m.serverErrors.Load(),
		Timeouts:     m.timeouts.Load(),
		Flights:      m.flights.Load(),
		Coalesced:    m.coalesced.Load(),
		ShedRate:     m.shedRate.Load(),
		ShedQueue:    m.shedQueue.Load(),
		ShedBreaker:  m.shedBreaker.Load(),
		ShedDraining: m.shedDraining.Load(),
		BreakerOpens: breakerOpens,
		NetFaults:    m.netFaults.Load(),
	}
}

// writePrometheus appends the scheduld_* exposition after the pipeline's
// doacross_* metrics on /metrics: one scrape covers both layers.
func (s *Server) writePrometheus(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP scheduld_%s %s\n# TYPE scheduld_%s counter\nscheduld_%s %d\n",
			name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP scheduld_%s %s\n# TYPE scheduld_%s gauge\nscheduld_%s %d\n",
			name, help, name, name, v)
	}
	m := &s.sm
	counter("requests_total", "schedule requests received", m.requests.Load())
	counter("responses_ok_total", "schedule requests answered 200", m.responsesOK.Load())
	counter("client_errors_total", "schedule requests answered 4xx (excluding rate-limit sheds)", m.clientErrors.Load())
	counter("server_errors_total", "schedule requests answered 5xx (excluding sheds)", m.serverErrors.Load())
	counter("timeouts_total", "schedule requests answered 504 after the caller's deadline expired", m.timeouts.Load())
	counter("flights_total", "singleflight computations started (leaders)", m.flights.Load())
	counter("coalesced_total", "requests served by another caller's in-flight computation", m.coalesced.Load())
	counter("shed_ratelimit_total", "requests shed 429 by the per-tenant token bucket", m.shedRate.Load())
	counter("shed_queue_total", "requests shed 503 by the bounded admission queue", m.shedQueue.Load())
	counter("shed_breaker_total", "requests shed 503 by an open backend circuit", m.shedBreaker.Load())
	counter("shed_draining_total", "requests shed 503 while draining for shutdown", m.shedDraining.Load())
	counter("net_faults_total", "injected network faults served as errors", m.netFaults.Load())
	if s.breakers != nil {
		counter("breaker_open_total", "circuit-breaker open transitions", s.breakers.openCount())
		states := s.breakers.states()
		names := make([]string, 0, len(states))
		for name := range states {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "# HELP scheduld_breaker_state circuit state per backend (0 closed, 1 open, 2 half-open)\n# TYPE scheduld_breaker_state gauge\n")
		for _, name := range names {
			fmt.Fprintf(w, "scheduld_breaker_state{backend=%q} %d\n", name, states[name])
		}
	}
	gauge("inflight", "requests holding an admission slot", s.adm.inFlight())
	gauge("queue_waiting", "requests waiting for an admission slot", s.adm.queued())
	flights, waiters := s.flights.Stats()
	gauge("flights_live", "singleflight computations currently running", int64(flights))
	gauge("flight_waiters", "callers currently waiting on a flight (leaders included)", int64(waiters))
	var draining int64
	if s.draining.Load() {
		draining = 1
	}
	gauge("draining", "1 while the daemon is draining for shutdown", draining)
	gauge("cache_entries", "in-memory cache entries", int64(s.cache.Len()))
	if s.disk != nil {
		ds := s.disk.Stats()
		gauge("disk_entries", "persistent-tier entries on disk", ds.Entries)
		counter("disk_writes_total", "persistent-tier writes", ds.Writes)
		counter("disk_write_errors_total", "persistent-tier write failures (request unaffected)", ds.WriteErrors)
		counter("disk_reads_total", "persistent-tier reads", ds.Reads)
		counter("disk_read_errors_total", "persistent-tier read failures", ds.ReadErrors)
		counter("disk_corrupt_total", "persistent-tier entries that failed integrity checks", ds.Corrupt)
		counter("disk_quarantined_total", "persistent-tier entries moved to quarantine", ds.Quarantined)
		gauge("disk_loaded", "entries restored warm from disk at startup", int64(s.loadStats.Loaded))
		gauge("disk_load_stale", "disk entries skipped at startup (produced under other options)", int64(s.loadStats.Stale))
		gauge("disk_load_corrupt", "disk entries quarantined at startup", int64(s.loadStats.Corrupt))
	}
}
