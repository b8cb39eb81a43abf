package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"
)

// Server is the HTTP admin surface of the CLIs' pipeline runs and of
// scheduld. It serves:
//
//	/metrics      Prometheus text-format exposition (Metrics hook)
//	/stats        JSON snapshot of the pipeline stats (Stats hook)
//	/trace        Chrome trace_event JSON of the recorded spans (Perfetto)
//	/trace.jsonl  the same spans as a structured JSONL event log
//	/healthz      liveness probe with uptime and span-buffer occupancy
//	/debug/pprof  the standard net/http/pprof handlers
//
// The hooks keep the package decoupled from internal/pipeline: the caller
// (internal/cliutil, internal/server, or any embedder) wires in whatever
// registry it uses. Hooks left nil make the corresponding endpoint return
// 404; an embedder mounts its own routes on the mux Handler returns.
type Server struct {
	// Recorder supplies the spans for /trace and /trace.jsonl (nil: 404).
	Recorder *Recorder
	// Metrics writes the Prometheus exposition for /metrics.
	Metrics func(w io.Writer)
	// Stats returns the JSON-marshalable snapshot for /stats.
	Stats func() any
	// Health adds the embedder's fields to the /healthz body, which holds
	// "status" ("ok"), "uptime_seconds" and, with a Recorder, the span
	// buffer's occupancy. It may overwrite "status" (nil: those only).
	Health func(fields map[string]any)
	// Extra supplies pre-built events (machine timelines from the simulator
	// tracer) merged into /trace alongside the recorded spans (nil: spans
	// only).
	Extra func() []Event

	once  sync.Once
	mux   *http.ServeMux
	start time.Time
	srv   *http.Server
}

// Handler returns the admin mux, built on the first call; uptime counts
// from then. Two patterns route every admin endpoint, so an embedder's own
// patterns take precedence over the catch-all "/". Each ServeMux
// registration looks up its caller (a few microseconds), and scheduld
// builds this mux every time it starts.
func (s *Server) Handler() *http.ServeMux {
	s.once.Do(func() {
		s.start = time.Now()
		s.mux = http.NewServeMux()
		s.mux.HandleFunc("/", s.serveAdmin)
		s.mux.HandleFunc("/debug/pprof/", servePprof)
	})
	return s.mux
}

// serveAdmin routes the admin endpoints outside /debug/pprof/.
func (s *Server) serveAdmin(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		s.handleHealthz(w, r)
	case "/metrics":
		s.handleMetrics(w, r)
	case "/stats":
		s.handleStats(w, r)
	case "/trace":
		s.handleTrace(w, r)
	case "/trace.jsonl":
		s.handleTraceJSONL(w, r)
	default:
		http.NotFound(w, r)
	}
}

// servePprof routes /debug/pprof/ to the standard net/http/pprof handlers.
func servePprof(w http.ResponseWriter, r *http.Request) {
	switch strings.TrimPrefix(r.URL.Path, "/debug/pprof/") {
	case "cmdline":
		pprof.Cmdline(w, r)
	case "profile":
		pprof.Profile(w, r)
	case "symbol":
		pprof.Symbol(w, r)
	case "trace":
		pprof.Trace(w, r)
	default:
		pprof.Index(w, r)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	resp := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	}
	if s.Recorder != nil {
		resp["spans"] = s.Recorder.Len()
		resp["spans_dropped"] = s.Recorder.Dropped()
	}
	if s.Health != nil {
		s.Health(resp)
	}
	_ = json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.Metrics == nil {
		http.NotFound(w, nil)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.Metrics(w)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	if s.Stats == nil {
		http.NotFound(w, nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Stats()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	if s.Recorder == nil {
		http.NotFound(w, nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="doacross-trace.json"`)
	var extra []Event
	if s.Extra != nil {
		extra = s.Extra()
	}
	_ = WriteChromeTraceMerged(w, s.Recorder.Snapshot(), s.Recorder.Epoch(), extra)
}

func (s *Server) handleTraceJSONL(w http.ResponseWriter, _ *http.Request) {
	if s.Recorder == nil {
		http.NotFound(w, nil)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	_ = s.Recorder.WriteJSONL(w)
}

// Listener timeouts. Admission control runs inside the handlers, so it
// never sees a client that trickles its request headers or parks an idle
// keep-alive connection; these bound how long such a client holds a
// connection and its goroutine. There is no read or write timeout: a
// /debug/pprof/profile capture and a schedule request both legitimately
// run for tens of seconds.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Start listens on addr (":0" picks a free port) and serves the admin
// surface in a background goroutine, returning the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr(), nil
}

// Shutdown gracefully stops the server started by Start (no-op otherwise):
// the listener closes immediately, but handlers already running — a
// /metrics scrape, a /trace download — finish before Shutdown returns, up
// to ctx's deadline. Past the deadline remaining connections are closed
// hard and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
		return err
	}
	return nil
}

// Close stops the server started by Start immediately, dropping in-flight
// requests (no-op otherwise). Prefer Shutdown for orderly teardown.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
