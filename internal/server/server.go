package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"doacross/internal/dfg"
	"doacross/internal/diag"
	"doacross/internal/obs"
	"doacross/internal/passes"
	"doacross/internal/pipeline"
)

// stageNet mirrors internal/faults' StageNet without importing it (the
// fault hook is plain func values in both directions): the network-edge
// probe point of every schedule request.
const stageNet = "net"

// Config configures the daemon. The zero value serves the paper's default
// pipeline options with admission control sized to the machine, no rate
// limit, no circuit breaker and no persistent tier.
type Config struct {
	// Pipeline is the base options every request is served under. Cache,
	// Disk and Metrics are owned by the server and overwritten; Workers
	// does not apply, since each flight runs on one goroutine.
	Pipeline pipeline.Options
	// CacheCap bounds the in-memory cache (0 = unbounded).
	CacheCap int
	// DiskDir roots the crash-safe persistent cache tier ("" = disabled).
	// On startup every entry is re-verified through internal/check and
	// published to the in-memory cache; corrupt entries are quarantined.
	DiskDir string
	// MaxInFlight bounds concurrently served requests (0 = 2*GOMAXPROCS).
	MaxInFlight int
	// QueueLimit bounds requests waiting for an admission slot
	// (0 = 4*MaxInFlight, negative = no queue: shed immediately when full).
	QueueLimit int
	// RatePerSec is the per-tenant token-bucket refill rate (<= 0 =
	// rate limiting disabled). Tenants are named by the X-Tenant header.
	RatePerSec float64
	// Burst is the token-bucket capacity (0 = max(1, RatePerSec)).
	Burst float64
	// BreakerThreshold is the consecutive backend failures that open its
	// circuit (0 = 5, negative = breaker disabled).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit sheds before allowing a
	// probe (0 = 30s).
	BreakerCooldown time.Duration
	// RequestTimeout bounds each request, queue wait included (0 = 30s,
	// negative = none).
	RequestTimeout time.Duration
	// MaxSourceBytes bounds the request body (0 = 1 MiB).
	MaxSourceBytes int64
	// FaultHook, when non-nil, is threaded everywhere the pipeline's is
	// (see pipeline.Options.FaultHook) and additionally probed at the
	// daemon's own boundaries: "net" on request arrival, "disk-write" and
	// "disk-read" in the persistent tier. internal/faults provides the
	// seeded implementation; production daemons leave it nil.
	FaultHook func(stage, name string) error
	// Logger receives the daemon's structured decision log (admission,
	// sheds, breaker transitions, served requests), every line keyed by
	// request_id. Nil logs nowhere live — but every record still lands in
	// the always-on flight recorder, which keeps debug-grade context
	// regardless of the live level.
	Logger *slog.Logger
	// FlightDir is where triggered flight-recorder dumps are written
	// ("" = stderr). Triggers: handler panic, deadline breach,
	// breaker-open, SIGQUIT (via DumpFlightRecord).
	FlightDir string
	// FlightRing bounds the flight recorder (0 = 256 records).
	FlightRing int
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight > 0 {
		return c.MaxInFlight
	}
	return 2 * runtime.GOMAXPROCS(0)
}

func (c Config) queueLimit() int {
	if c.QueueLimit > 0 {
		return c.QueueLimit
	}
	if c.QueueLimit < 0 {
		return 0
	}
	return 4 * c.maxInFlight()
}

func (c Config) burst() float64 {
	if c.Burst > 0 {
		return c.Burst
	}
	return math.Max(1, c.RatePerSec)
}

func (c Config) breakerThreshold() int {
	if c.BreakerThreshold > 0 {
		return c.BreakerThreshold
	}
	if c.BreakerThreshold < 0 {
		return 0 // disabled
	}
	return 5
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout > 0 {
		return c.RequestTimeout
	}
	if c.RequestTimeout < 0 {
		return 0
	}
	return 30 * time.Second
}

func (c Config) maxSourceBytes() int64 {
	if c.MaxSourceBytes > 0 {
		return c.MaxSourceBytes
	}
	return 1 << 20
}

// Server is the scheduling daemon. Build with New, wire Handler into an
// HTTP server (or call Start), and Shutdown on SIGTERM.
type Server struct {
	cfg     Config
	opt     pipeline.Options // resolved base options (cache/disk/metrics wired)
	cache   *pipeline.Cache
	disk    *pipeline.DiskStore
	metrics *pipeline.Metrics

	flights pipeline.Group
	// svcs holds one pipeline Service per effective backend name a request
	// asked for, built on first use; svcMu guards it.
	svcMu    sync.Mutex
	svcs     map[string]*pipeline.Service
	limiter  *rateLimiter
	adm      *admission
	breakers *breakerSet
	sm       serverMetrics

	log      *slog.Logger
	flight   *obs.FlightRecorder
	lastDump atomic.Int64

	loadStats pipeline.LoadStats
	draining  atomic.Bool
	start     time.Time
	srv       *http.Server
	ln        net.Listener
}

// New builds the daemon: it opens the persistent tier (when configured),
// re-verifies and loads every disk entry into the in-memory cache — so a
// restart serves warm, verified hits without recompiling at request time —
// and wires admission control from cfg. It refuses pipeline defaults that
// pipeline.RunContext would refuse (see pipeline.Options.Validate).
func New(cfg Config) (*Server, error) {
	// Every request runs under cfg.Pipeline: a default the pipeline would
	// refuse fails every request, so refuse it here, at startup.
	if err := cfg.Pipeline.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		cache:    pipeline.NewCacheBounded(cfg.CacheCap),
		metrics:  pipeline.NewMetrics(),
		limiter:  newRateLimiter(cfg.RatePerSec, cfg.burst()),
		adm:      newAdmission(cfg.maxInFlight(), cfg.queueLimit()),
		breakers: newBreakerSet(cfg.breakerThreshold(), cfg.BreakerCooldown),
		flight:   obs.NewFlightRecorder(cfg.FlightRing),
		start:    time.Now(),
	}
	var inner slog.Handler
	if cfg.Logger != nil {
		inner = cfg.Logger.Handler()
	}
	s.log = obs.FlightLogger(s.flight, inner)
	s.opt = cfg.Pipeline
	s.opt.Cache = s.cache
	s.opt.Metrics = s.metrics
	s.opt.FaultHook = cfg.FaultHook
	s.opt.RequestTimeout = 0 // deadlines are inherited through the flight
	s.opt.Deadline = 0
	s.metrics.AttachCache(s.cache)
	if cfg.DiskDir != "" {
		disk, err := pipeline.OpenDiskStore(cfg.DiskDir)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		disk.SetFaultHook(cfg.FaultHook)
		// Warm start under load-time options: no fault hook (startup is
		// not a request) and no request metrics — the recompile that
		// re-derives each entry's graph happens once here, so the runtime
		// registry shows zero compile-stage runs for warm-served keys.
		loadOpt := cfg.Pipeline
		loadOpt.Cache = s.cache
		loadOpt.Metrics = nil
		loadOpt.FaultHook = nil
		loadOpt.Observer = nil
		ls, err := pipeline.LoadDisk(context.Background(), disk, s.cache, loadOpt)
		if err != nil {
			return nil, fmt.Errorf("server: load disk tier: %w", err)
		}
		s.disk = disk
		s.loadStats = ls
		s.opt.Disk = disk
		s.log.Info("disk tier loaded",
			"dir", cfg.DiskDir, "scanned", ls.Scanned, "loaded", ls.Loaded,
			"stale", ls.Stale, "corrupt", ls.Corrupt, "errors", ls.Errors)
	}
	return s, nil
}

// LoadStats reports the warm-start outcome of the persistent tier.
func (s *Server) LoadStats() pipeline.LoadStats { return s.loadStats }

// Metrics exposes the pipeline registry shared by every flight.
func (s *Server) Metrics() *pipeline.Metrics { return s.metrics }

// Handler builds the daemon mux:
//
//	POST /v1/schedule        schedule one loop (coalesced, admission-controlled)
//	GET  /healthz            liveness: status, uptime, admission gauges
//	GET  /metrics            Prometheus exposition: doacross_* then scheduld_*
//	GET  /stats              JSON snapshot: server, pipeline, disk, warm-start
//	GET  /debug/flightrecord the flight recorder's ring as JSONL
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/schedule", s.recovered(s.handleSchedule))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/debug/flightrecord", s.handleFlightRecord)
	return mux
}

// retrySeconds renders a wait as a Retry-After value (whole seconds, >= 1).
func retrySeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeError answers with a JSON ErrorResponse; retryAfter > 0 adds the
// Retry-After header clients back off on.
func writeError(w http.ResponseWriter, code int, retryAfter time.Duration, resp ErrorResponse) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfter > 0 {
		resp.RetryAfterSeconds = retrySeconds(retryAfter)
		w.Header().Set("Retry-After", strconv.Itoa(resp.RetryAfterSeconds))
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(resp)
}

// backendName normalizes a request's effective backend ("" is "sync",
// mirroring the pipeline) — the circuit breaker's key.
func backendName(b string) string {
	if b == "" {
		return "sync"
	}
	return b
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, 0, ErrorResponse{Error: "POST only"})
		return
	}
	rid := requestID(r)
	w.Header().Set("X-Request-Id", rid)
	started := time.Now()
	name := "loop"
	backend := ""
	// deny answers with an error response, logging the decision and landing
	// it in the flight recorder, everything keyed by the correlation ID.
	deny := func(level slog.Level, code int, retryAfter time.Duration, resp ErrorResponse) {
		resp.RequestID = rid
		writeError(w, code, retryAfter, resp)
		s.log.Log(r.Context(), level, "request refused",
			"request_id", rid, "loop", name, "backend", backend,
			"status", code, "reason", resp.Reason, "error", resp.Error)
		s.flight.Add(obs.FlightRecord{Kind: "request", RequestID: rid,
			Request: &obs.RequestRecord{
				Name: name, Backend: backend, Status: code,
				DurationMS: float64(time.Since(started).Microseconds()) / 1e3,
				Err:        resp.Error,
			}})
	}
	s.sm.requests.Add(1)
	if s.draining.Load() {
		s.sm.shedDraining.Add(1)
		deny(slog.LevelWarn, http.StatusServiceUnavailable, time.Second,
			ErrorResponse{Error: "daemon is draining for shutdown", Reason: "draining"})
		return
	}
	var req ScheduleRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.maxSourceBytes()))
	if err := dec.Decode(&req); err != nil {
		s.sm.clientErrors.Add(1)
		deny(slog.LevelInfo, http.StatusBadRequest, 0, ErrorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if req.Name != "" {
		name = req.Name
	}
	if strings.TrimSpace(req.Source) == "" {
		s.sm.clientErrors.Add(1)
		deny(slog.LevelInfo, http.StatusBadRequest, 0, ErrorResponse{Error: "missing source"})
		return
	}
	if req.N < 0 {
		s.sm.clientErrors.Add(1)
		deny(slog.LevelInfo, http.StatusBadRequest, 0, ErrorResponse{Error: fmt.Sprintf("negative trip count n=%d", req.N)})
		return
	}

	// Per-request backend override; fail unknown names before any work.
	effective := s.opt.Compile.Backend
	if req.Backend != "" {
		effective = req.Backend
	}
	backend = backendName(effective)
	svc, err := s.service(effective)
	if err != nil {
		s.sm.clientErrors.Add(1)
		deny(slog.LevelInfo, http.StatusBadRequest, 0, ErrorResponse{Error: err.Error()})
		return
	}

	// Network-edge fault probe: chaos tests inject delays (served slow) and
	// failures (served 503) here, before any admission decision.
	if s.cfg.FaultHook != nil {
		if err := s.cfg.FaultHook(stageNet, name); err != nil {
			s.sm.netFaults.Add(1)
			s.sm.serverErrors.Add(1)
			deny(slog.LevelWarn, http.StatusServiceUnavailable, time.Second,
				ErrorResponse{Error: "network fault: " + err.Error()})
			return
		}
	}

	// Admission control: token bucket, then circuit, then bounded queue.
	if ok, wait := s.limiter.admit(r.Header.Get("X-Tenant"), time.Now()); !ok {
		s.sm.shedRate.Add(1)
		deny(slog.LevelWarn, http.StatusTooManyRequests, wait,
			ErrorResponse{Error: "tenant rate limit exceeded", Reason: "ratelimit"})
		return
	}
	if ok, wait := s.breakers.allow(backend, time.Now()); !ok {
		s.sm.shedBreaker.Add(1)
		deny(slog.LevelWarn, http.StatusServiceUnavailable, wait,
			ErrorResponse{Error: fmt.Sprintf("backend %q circuit open", backend), Reason: "breaker"})
		return
	}
	ctx := r.Context()
	if d := s.cfg.requestTimeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	release, admitted := s.adm.acquire(ctx)
	if !admitted {
		s.sm.shedQueue.Add(1)
		deny(slog.LevelWarn, http.StatusServiceUnavailable, time.Second,
			ErrorResponse{Error: "admission queue full", Reason: "queue"})
		return
	}
	defer release()

	// recordBreaker feeds the circuit only from flight leaders and dumps
	// the flight recorder when this very outcome opened the circuit.
	recordBreaker := func(ok bool, coalesced bool) {
		if coalesced {
			return
		}
		if s.breakers.record(backend, ok, time.Now()) {
			s.log.Error("circuit breaker opened", "request_id", rid, "backend", backend)
			s.maybeDump("breaker-open")
		}
	}

	// Coalesce on the content address of the scheduling problem: among
	// concurrent identical requests exactly one runs the pipeline; the
	// flight inherits the latest deadline of everyone who joined. The
	// leader's flight carries this request's correlation ID and, when no
	// batch-level observer is configured, a per-flight span recorder whose
	// tree lands in the flight record.
	preq := pipeline.Request{Name: name, Source: req.Source, N: req.N, ID: rid}
	key := svc.Key(preq)
	var frec *obs.Recorder
	v, err, coalesced := s.flights.Do(ctx, key, func(fctx context.Context) (any, error) {
		if s.opt.Observer == nil {
			frec = obs.NewRecorder(512)
		}
		res := svc.Run(fctx, preq, frec)
		return &res, nil
	})
	if coalesced {
		s.sm.coalesced.Add(1)
	} else {
		s.sm.flights.Add(1)
	}
	var spans []obs.SpanNode
	if frec != nil {
		spans = obs.SpanNodes(frec.Snapshot())
	}
	record := func(status int, degraded bool, errText string) {
		s.flight.Add(obs.FlightRecord{Kind: "request", RequestID: rid,
			Request: &obs.RequestRecord{
				Name: name, Backend: backend, Status: status,
				DurationMS: float64(time.Since(started).Microseconds()) / 1e3,
				Coalesced:  coalesced, Degraded: degraded,
				Err: errText, Spans: spans,
			}})
	}
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			// Our own deadline expired; the flight may still finish for
			// other waiters, so this says nothing about backend health.
			s.sm.timeouts.Add(1)
			writeError(w, http.StatusGatewayTimeout, 0, ErrorResponse{Error: err.Error(), RequestID: rid})
			s.log.Error("request deadline breached",
				"request_id", rid, "loop", name, "backend", backend,
				"error", err.Error())
			record(http.StatusGatewayTimeout, false, err.Error())
			s.maybeDump("deadline")
			return
		}
		s.sm.serverErrors.Add(1)
		recordBreaker(false, coalesced)
		writeError(w, http.StatusInternalServerError, 0, ErrorResponse{Error: err.Error(), RequestID: rid})
		s.log.Error("flight failed",
			"request_id", rid, "loop", name, "backend", backend, "error", err.Error())
		record(http.StatusInternalServerError, false, err.Error())
		return
	}
	res := v.(*pipeline.LoopResult)
	if res.Err != nil {
		status := s.finishError(w, res, rid, func(ok bool) { recordBreaker(ok, coalesced) })
		s.log.Error("request failed",
			"request_id", rid, "loop", name, "backend", backend,
			"status", status, "error", res.Err.Error())
		record(status, false, res.Err.Error())
		if status == http.StatusGatewayTimeout {
			s.maybeDump("deadline")
		}
		return
	}

	// Degraded (fallback-served) results are still correct answers — the
	// fallback passed internal/check — but they mean the backend failed,
	// which is exactly what the circuit breaker wants to know.
	recordBreaker(!res.Degraded(), coalesced)
	s.sm.responsesOK.Add(1)
	resp := &ScheduleResponse{
		Name:      res.Name,
		N:         res.N,
		Key:       hexKey(key),
		RequestID: rid,
		Coalesced: coalesced,
		Machines:  make([]MachineResult, len(res.Machines)),
	}
	cacheHits := 0
	for i := range res.Machines {
		m := &res.Machines[i]
		if m.CacheHit {
			cacheHits++
		}
		resp.Machines[i] = MachineResult{
			Machine:        m.Machine,
			Key:            hexKey(m.Key),
			ListTime:       m.ListTime,
			SyncTime:       m.SyncTime,
			BestTime:       m.BestTime,
			Improvement:    m.Improvement,
			Backend:        m.Backend,
			PredictedT:     m.PredictedT,
			Optimal:        m.Optimal,
			LowerBound:     m.LowerBound,
			CacheHit:       m.CacheHit,
			Degraded:       m.Degraded,
			DegradedReason: m.DegradedReason,
			SyncSignals:    m.SyncSignals,
			StallCycles:    m.SyncStalls,
			Utilization:    m.SyncUtil,
		}
	}
	if len(res.Lint) > 0 {
		resp.Lint = make([]string, len(res.Lint))
		for i, d := range res.Lint {
			resp.Lint[i] = d.Error()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
	s.log.Info("request served",
		"request_id", rid, "loop", name, "backend", backend,
		"n", res.N, "machines", len(res.Machines), "cache_hits", cacheHits,
		"coalesced", coalesced, "degraded", res.Degraded(),
		"duration_ms", float64(time.Since(started).Microseconds())/1e3)
	record(http.StatusOK, res.Degraded(), "")
}

// hexKey renders a content address as lowercase hex.
func hexKey(fp dfg.Fingerprint) string {
	var b [2 * len(fp)]byte
	hex.Encode(b[:], fp[:])
	return string(b[:])
}

// service returns the pipeline Service for a request's effective backend
// name, built on first use. An unknown name is refused with passes.Backend's
// error and never stored, so the map holds at most one Service per name
// passes.Backend accepts.
func (s *Server) service(backend string) (*pipeline.Service, error) {
	s.svcMu.Lock()
	defer s.svcMu.Unlock()
	if svc, ok := s.svcs[backend]; ok {
		return svc, nil
	}
	opt := s.opt
	opt.Compile.Backend = backend
	if _, err := passes.Backend(backend, passes.BackendConfig{Sync: opt.Sync, Exact: opt.Compile.Exact}); err != nil {
		return nil, err
	}
	svc, err := pipeline.NewService(opt)
	if err != nil {
		return nil, err
	}
	if s.svcs == nil {
		s.svcs = make(map[string]*pipeline.Service)
	}
	s.svcs[backend] = svc
	return svc, nil
}

// finishError classifies a per-request pipeline error into a status code
// and feeds the circuit breaker (through recordBreaker) only backend-health
// outcomes: validation and compile diagnostics are the client's bad request
// (400, breaker-neutral), expired deadlines are timeouts (504,
// breaker-neutral — the flight may still finish for other waiters),
// everything else is a server failure (500). A request that got past
// compilation (non-nil Machines) can only fail by the service's fault —
// a rejected fallback, a failed timing audit — even when the checker
// reports it as a diagnostic. Returns the status served, for the decision
// log.
func (s *Server) finishError(w http.ResponseWriter, res *pipeline.LoopResult, rid string, recordBreaker func(ok bool)) int {
	err := res.Err
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.sm.timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, 0, ErrorResponse{Error: err.Error(), RequestID: rid})
		return http.StatusGatewayTimeout
	}
	var d *diag.Diagnostic
	if res.Machines == nil && errors.As(err, &d) && !strings.Contains(d.Msg, "panic:") {
		s.sm.clientErrors.Add(1)
		resp := ErrorResponse{Error: err.Error(), RequestID: rid}
		for _, dd := range res.Diags {
			resp.Diagnostics = append(resp.Diagnostics, dd.Error())
		}
		writeError(w, http.StatusBadRequest, 0, resp)
		return http.StatusBadRequest
	}
	s.sm.serverErrors.Add(1)
	recordBreaker(false)
	writeError(w, http.StatusInternalServerError, 0, ErrorResponse{Error: err.Error(), RequestID: rid})
	return http.StatusInternalServerError
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	resp := map[string]any{
		"status":         status,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"inflight":       s.adm.inFlight(),
		"queued":         s.adm.queued(),
		"cache_entries":  s.cache.Len(),
	}
	if s.disk != nil {
		resp["disk_entries"] = s.disk.Len()
		resp["disk_loaded"] = s.loadStats.Loaded
	}
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
	s.writePrometheus(w)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	resp := map[string]any{
		"server":   s.sm.snapshot(s.breakers.openCount()),
		"pipeline": s.metrics.Stats(),
	}
	if s.disk != nil {
		resp["disk"] = s.disk.Stats()
		resp["load"] = s.loadStats
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Start listens on addr (":0" picks a free port) and serves the daemon in
// a background goroutine, returning the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr(), nil
}

// Shutdown drains the daemon: new schedule requests are shed with 503 +
// Retry-After immediately, requests already admitted (and the flights they
// lead) finish up to ctx's deadline, then the listener closes and the
// persistent tier is flushed. Safe without Start (handler-only embeddings):
// it still flips draining and flushes the disk tier.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	if s.srv != nil {
		s.srv.SetKeepAlivesEnabled(false)
		if serr := s.srv.Shutdown(ctx); serr != nil {
			_ = s.srv.Close()
			err = serr
		}
	}
	if s.disk != nil {
		if ferr := s.disk.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}
