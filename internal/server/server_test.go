package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doacross/internal/diag"
	"doacross/internal/dlx"
	"doacross/internal/faults"
	"doacross/internal/obs"
	"doacross/internal/passes"
	"doacross/internal/pipeline"
)

// fig1 is the paper's running example, the corpus of every daemon test.
const fig1 = `DO I = 1, N
S1: B[I] = A[I-2] + E[I+1]
S2: G[I-3] = A[I-1] * E[I+2]
S3: A[I] = B[I] + C[I+3]
ENDDO`

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// post serves one schedule request through the handler and decodes the
// answer into out (which may be *ScheduleResponse or *ErrorResponse).
func post(t *testing.T, h http.Handler, req ScheduleRequest, hdr map[string]string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(string(body)))
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w, w.Body.Bytes()
}

func decodeOK(t *testing.T, w *httptest.ResponseRecorder, body []byte) *ScheduleResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, body)
	}
	var resp ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v (%s)", err, body)
	}
	return &resp
}

func decodeErr(t *testing.T, body []byte) *ErrorResponse {
	t.Helper()
	var resp ErrorResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode error body: %v (%s)", err, body)
	}
	return &resp
}

// TestNewRejectsUnservableDefaults: a default the pipeline refuses would
// fail every request (500s until the breaker opens, then 503s), so New
// refuses each such option at startup, naming it.
func TestNewRejectsUnservableDefaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  pipeline.Options
		want string
	}{
		{"machine", pipeline.Options{Machines: []dlx.Config{{Name: "zero-issue", Issue: 0}}}, "zero-issue"},
		{"trip count", pipeline.Options{N: pipeline.MaxTrip + 1}, "exceeds the limit"},
		{"backend", pipeline.Options{Compile: passes.Options{Backend: "no-such-backend"}}, "no-such-backend"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Pipeline: tc.opt})
			if err == nil {
				t.Fatalf("New accepted %+v", tc.opt)
			}
			if s != nil {
				t.Error("New returned a server with its error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("New error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The limit itself is servable.
	if _, err := New(Config{Pipeline: pipeline.Options{N: pipeline.MaxTrip}}); err != nil {
		t.Errorf("New rejected N = MaxTrip: %v", err)
	}
}

// TestScheduleBasic: a cold request compiles and schedules; an identical
// follow-up is a verified cache hit with the same content address.
func TestScheduleBasic(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	w, body := post(t, h, ScheduleRequest{Name: "fig1", Source: fig1}, nil)
	first := decodeOK(t, w, body)
	if len(first.Machines) == 0 {
		t.Fatal("no machine results")
	}
	m := first.Machines[0]
	if m.CacheHit {
		t.Error("cold request served from cache")
	}
	if m.SyncTime <= 0 || m.ListTime <= 0 {
		t.Errorf("times = (%d, %d), want positive", m.ListTime, m.SyncTime)
	}
	if first.Key == "" || m.Key == "" {
		t.Error("response is missing content-address keys")
	}

	w, body = post(t, h, ScheduleRequest{Name: "fig1", Source: fig1}, nil)
	second := decodeOK(t, w, body)
	if !second.Machines[0].CacheHit {
		t.Error("identical follow-up was not a cache hit")
	}
	if second.Key != first.Key || second.Machines[0].SyncTime != m.SyncTime {
		t.Error("cache hit differs from the cold answer")
	}
}

// TestBadRequests: malformed input is refused with 400 before any work
// (405 for the wrong method), never 500.
func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	r := httptest.NewRequest(http.MethodGet, "/v1/schedule", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET = %d, want 405", w.Code)
	}

	cases := []struct {
		name string
		body string
	}{
		{"bad json", "{not json"},
		{"missing source", `{"name":"x"}`},
		{"negative n", fmt.Sprintf(`{"source":%q,"n":-1}`, fig1)},
		{"n above the admission bound", fmt.Sprintf(`{"source":%q,"n":%d}`, fig1, pipeline.MaxTrip+1)},
		{"unknown backend", fmt.Sprintf(`{"source":%q,"backend":"bogus"}`, fig1)},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, w.Code, w.Body)
		}
	}

	// A compile diagnostic in well-formed JSON is the client's bad source.
	w2, body := post(t, h, ScheduleRequest{Source: "DO I = ,\n"}, nil)
	if w2.Code != http.StatusBadRequest {
		t.Errorf("unparseable loop: status = %d, want 400 (%s)", w2.Code, body)
	}
	if er := decodeErr(t, body); er.Error == "" {
		t.Error("400 carries no error text")
	}
}

// TestServicePerBackend: the daemon builds one pipeline Service per backend
// name a request asks for, on first use and never for a name the pipeline
// does not know, which is refused with passes.Backend's error. Requests for
// every backend arrive from several goroutines at once.
func TestServicePerBackend(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	services := func() int {
		s.svcMu.Lock()
		defer s.svcMu.Unlock()
		return len(s.svcs)
	}
	if n := services(); n != 0 {
		t.Fatalf("New built %d services, want none", n)
	}
	w, body := post(t, h, ScheduleRequest{Source: fig1, Backend: "bogus"}, nil)
	_, want := passes.Backend("bogus", passes.BackendConfig{})
	if w.Code != http.StatusBadRequest || decodeErr(t, body).Error != want.Error() {
		t.Errorf("unknown backend: status %d, body %s; want 400 with %q", w.Code, body, want)
	}
	if n := services(); n != 0 {
		t.Fatalf("an unknown backend left %d services", n)
	}
	names := append([]string{""}, passes.BackendNames()...)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range names {
				body, err := json.Marshal(ScheduleRequest{Source: fig1, Backend: name})
				if err != nil {
					t.Error(err)
					return
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(string(body))))
				if w.Code != http.StatusOK {
					t.Errorf("backend %q: status %d, body %s", name, w.Code, w.Body)
				}
			}
		}()
	}
	wg.Wait()
	if n := services(); n != len(names) {
		t.Errorf("%d services after requests for %d backend names, want one each", n, len(names))
	}
}

// TestCoalescing: concurrent identical requests share one flight — one
// pipeline run, N-1 coalesced responses — and the counters agree.
func TestCoalescing(t *testing.T) {
	const n = 5
	release := make(chan struct{})
	var compiles atomic.Int64
	hook := func(stage, name string) error {
		if stage == "compile" && name == "blockme" {
			compiles.Add(1)
			<-release
		}
		return nil
	}
	s := newTestServer(t, Config{MaxInFlight: 2 * n, FaultHook: hook})
	h := s.Handler()

	var wg sync.WaitGroup
	var coalesced atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, body := post(t, h, ScheduleRequest{Name: "blockme", Source: fig1}, nil)
			if w.Code != http.StatusOK {
				t.Errorf("status = %d (%s)", w.Code, body)
				return
			}
			var resp ScheduleResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Error(err)
				return
			}
			if resp.Coalesced {
				coalesced.Add(1)
			}
		}()
	}
	// Release the leader only once every caller joined the flight — that is
	// what makes the coalesced count exact.
	waitFor(t, "all callers to join the flight", func() bool {
		flights, waiters := s.flights.Stats()
		return flights == 1 && waiters == n
	})
	close(release)
	wg.Wait()

	if got := coalesced.Load(); got != n-1 {
		t.Errorf("coalesced responses = %d, want %d", got, n-1)
	}
	if got := compiles.Load(); got != 1 {
		t.Errorf("pipeline ran %d times, want 1", got)
	}
	r := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	text := w.Body.String()
	if !strings.Contains(text, fmt.Sprintf("scheduld_coalesced_total %d", n-1)) {
		t.Errorf("/metrics does not report %d coalesced requests", n-1)
	}
	if !strings.Contains(text, "scheduld_flights_total 1") {
		t.Error("/metrics does not report exactly 1 flight")
	}
}

// TestRateLimit: an exhausted tenant bucket sheds with 429 + Retry-After
// while other tenants keep their own budget.
func TestRateLimit(t *testing.T) {
	s := newTestServer(t, Config{RatePerSec: 1, Burst: 1})
	h := s.Handler()

	w, body := post(t, h, ScheduleRequest{Source: fig1}, nil)
	decodeOK(t, w, body)

	w, body = post(t, h, ScheduleRequest{Source: fig1}, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429 (%s)", w.Code, body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if er := decodeErr(t, body); er.Reason != "ratelimit" || er.RetryAfterSeconds < 1 {
		t.Errorf("429 body = %+v", er)
	}

	// Another tenant's bucket is untouched.
	w, body = post(t, h, ScheduleRequest{Source: fig1}, map[string]string{"X-Tenant": "other"})
	decodeOK(t, w, body)
}

// TestQueueShed: with one slot and no queue, a second request is shed
// immediately with 503 reason "queue" instead of waiting unboundedly.
func TestQueueShed(t *testing.T) {
	release := make(chan struct{})
	hook := func(stage, name string) error {
		if stage == "compile" && name == "hold" {
			<-release
		}
		return nil
	}
	s := newTestServer(t, Config{MaxInFlight: 1, QueueLimit: -1, FaultHook: hook})
	h := s.Handler()

	done := make(chan struct{})
	go func() {
		defer close(done)
		w, body := post(t, h, ScheduleRequest{Name: "hold", Source: fig1}, nil)
		if w.Code != http.StatusOK {
			t.Errorf("held request = %d (%s)", w.Code, body)
		}
	}()
	waitFor(t, "first request to hold the slot", func() bool { return s.adm.inFlight() == 1 })

	w, body := post(t, h, ScheduleRequest{Name: "shed", Source: fig1}, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("second request = %d, want 503 (%s)", w.Code, body)
	}
	if er := decodeErr(t, body); er.Reason != "queue" {
		t.Errorf("shed reason = %q, want queue", er.Reason)
	}
	close(release)
	<-done
}

// TestBreaker: consecutive degraded (fallback-served) answers open the
// backend's circuit — subsequent requests shed with 503 reason "breaker" —
// while a healthy backend's circuit stays closed.
func TestBreaker(t *testing.T) {
	hook := func(stage, name string) error {
		if stage == "schedule" && strings.HasPrefix(name, "bad") {
			return fmt.Errorf("injected backend failure")
		}
		return nil
	}
	s := newTestServer(t, Config{
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		FaultHook:        hook,
	})
	h := s.Handler()

	// Two degraded 200s: correct answers served by the verified fallback,
	// but each one a backend failure the breaker must count.
	for i := 0; i < 2; i++ {
		w, body := post(t, h, ScheduleRequest{Name: fmt.Sprintf("bad%d", i), Source: fig1}, nil)
		resp := decodeOK(t, w, body)
		if !resp.Machines[0].Degraded {
			t.Fatalf("request %d not degraded; the hook did not fire", i)
		}
	}

	w, body := post(t, h, ScheduleRequest{Name: "bad2", Source: fig1}, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-threshold request = %d, want 503 (%s)", w.Code, body)
	}
	if er := decodeErr(t, body); er.Reason != "breaker" {
		t.Errorf("shed reason = %q, want breaker", er.Reason)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("breaker 503 without Retry-After")
	}

	// A different backend is a different circuit: still served.
	w, body = post(t, h, ScheduleRequest{Name: "good", Source: fig1, Backend: "list"}, nil)
	decodeOK(t, w, body)

	r := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if !strings.Contains(rec.Body.String(), "scheduld_breaker_open_total 1") {
		t.Error("/metrics does not count the circuit opening")
	}
}

// TestVerifyFailureIsServerError: a verification failure after compilation
// is the service's fault, even though the checker reports it as a
// diagnostic. Here the schedule stage fails (the request degrades onto the
// fallback) and the check stage then rejects the fallback with a check
// diagnostic: the answer is a 500 that counts as a backend failure, not a
// 400 blaming the client's loop.
func TestVerifyFailureIsServerError(t *testing.T) {
	hook := func(stage, name string) error {
		switch {
		case stage == "schedule" && name == "bad":
			return fmt.Errorf("injected backend failure")
		case stage == "check" && name == "bad":
			return diag.Errorf("check", diag.Pos{}, "injected verifier rejection")
		}
		return nil
	}
	s := newTestServer(t, Config{BreakerThreshold: 1, BreakerCooldown: time.Hour, FaultHook: hook})
	h := s.Handler()
	w, body := post(t, h, ScheduleRequest{Name: "bad", Source: fig1}, nil)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("rejected fallback: status = %d, want 500 (%s)", w.Code, body)
	}
	if er := decodeErr(t, body); !strings.Contains(er.Error, "pipeline: verify bad on") {
		t.Errorf("500 error text = %q", er.Error)
	}
	if st := s.sm.snapshot(s.breakers.openCount()); st.ServerErrors != 1 || st.ClientErrors != 0 {
		t.Errorf("server/client errors = %d/%d, want 1/0", st.ServerErrors, st.ClientErrors)
	}
	// The failure was recorded against the backend: its circuit is open.
	w, body = post(t, h, ScheduleRequest{Name: "good", Source: fig1}, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("after a backend failure at threshold 1: status = %d, want 503 (%s)", w.Code, body)
	}
	if er := decodeErr(t, body); er.Reason != "breaker" {
		t.Errorf("shed reason = %q, want breaker", er.Reason)
	}
}

// TestBreakerDisabled: a negative threshold disables the circuit breaker;
// requests are served, failures are absorbed without opening anything, and
// the breaker counters read zero.
func TestBreakerDisabled(t *testing.T) {
	hook := func(stage, name string) error {
		if stage == "schedule" && name == "bad" {
			return fmt.Errorf("injected backend failure")
		}
		return nil
	}
	s := newTestServer(t, Config{BreakerThreshold: -1, FaultHook: hook})
	h := s.Handler()
	// Degraded answers are never cached, so every "bad" request reaches the
	// failing backend.
	for i := 0; i < 3; i++ {
		w, body := post(t, h, ScheduleRequest{Name: "bad", Source: fig1}, nil)
		if resp := decodeOK(t, w, body); !resp.Machines[0].Degraded {
			t.Fatalf("request %d not degraded; the hook did not fire", i)
		}
	}
	w, body := post(t, h, ScheduleRequest{Name: "good", Source: fig1}, nil)
	decodeOK(t, w, body)
	if got := s.sm.snapshot(s.breakers.openCount()).BreakerOpens; got != 0 {
		t.Errorf("disabled breaker reports %d opens", got)
	}
}

// TestDrainingSheds: after Shutdown the handler sheds new requests with
// 503 reason "draining" (handler-only embedding: no listener involved).
func TestDrainingSheds(t *testing.T) {
	s := newTestServer(t, Config{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	w, body := post(t, s.Handler(), ScheduleRequest{Source: fig1}, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining request = %d, want 503 (%s)", w.Code, body)
	}
	if er := decodeErr(t, body); er.Reason != "draining" {
		t.Errorf("shed reason = %q, want draining", er.Reason)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After")
	}
}

// TestGracefulDrain: a request admitted before SIGTERM finishes during the
// drain window and Shutdown returns clean.
func TestGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	hook := func(stage, name string) error {
		if stage == "compile" && name == "hold" {
			<-release
		}
		return nil
	}
	s := newTestServer(t, Config{FaultHook: hook})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/schedule", "application/json",
			strings.NewReader(fmt.Sprintf(`{"name":"hold","source":%q}`, fig1)))
		if err != nil {
			t.Error(err)
			reqDone <- 0
			return
		}
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	waitFor(t, "request to be admitted", func() bool { return s.adm.inFlight() == 1 })

	shutDone := make(chan error, 1)
	go func() { shutDone <- s.Shutdown(context.Background()) }()
	waitFor(t, "drain to begin", func() bool { return s.draining.Load() })

	close(release)
	if code := <-reqDone; code != http.StatusOK {
		t.Errorf("in-flight request finished with %d during drain, want 200", code)
	}
	if err := <-shutDone; err != nil {
		t.Errorf("Shutdown = %v, want nil", err)
	}
}

// TestServerWarmRestart is the acceptance scenario: a cold daemon fills the
// persistent tier, a restarted daemon re-verifies and loads it, and then
// serves the same request as a warm hit with zero request-time recompiles.
func TestServerWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{DiskDir: dir})
	w, body := post(t, s1.Handler(), ScheduleRequest{Name: "fig1", Source: fig1}, nil)
	cold := decodeOK(t, w, body)
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{DiskDir: dir})
	if ls := s2.LoadStats(); ls.Loaded < 1 || ls.Corrupt != 0 {
		t.Fatalf("warm start loaded %d entries (%s), want >= 1 clean", ls.Loaded, ls)
	}
	w, body = post(t, s2.Handler(), ScheduleRequest{Name: "fig1", Source: fig1}, nil)
	warm := decodeOK(t, w, body)
	if !warm.Machines[0].CacheHit {
		t.Error("restarted daemon did not serve the warm entry")
	}
	if warm.Key != cold.Key || warm.Machines[0].SyncTime != cold.Machines[0].SyncTime {
		t.Error("warm answer differs from the cold answer")
	}
	// Zero request-time scheduling: the entry came off disk, verified.
	if n := s2.Metrics().Stats().Stage(pipeline.StageSchedule).Count; n != 0 {
		t.Errorf("warm daemon ran the scheduler %d times, want 0", n)
	}
}

// TestServerWarmRestartEveryBackend: a tier written by default requests and
// by requests that name another backend restarts whole, nothing stale, and
// the restarted daemon answers the other backend's request from memory,
// scheduling and simulating nothing.
func TestServerWarmRestartEveryBackend(t *testing.T) {
	dir := t.TempDir()
	reqs := []ScheduleRequest{
		{Name: "fig1", Source: fig1},
		{Name: "fig1-best", Source: fig1, Backend: "best"},
	}
	s1 := newTestServer(t, Config{DiskDir: dir})
	cold := make([]*ScheduleResponse, len(reqs))
	for i, req := range reqs {
		w, body := post(t, s1.Handler(), req, nil)
		cold[i] = decodeOK(t, w, body)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{DiskDir: dir})
	if ls := s2.LoadStats(); ls.Loaded != len(reqs) || ls.Stale != 0 || ls.Corrupt != 0 {
		t.Fatalf("warm start %s, want loaded=%d stale=0 corrupt=0", ls, len(reqs))
	}
	w, body := post(t, s2.Handler(), reqs[1], nil)
	warm := decodeOK(t, w, body)
	if m := warm.Machines[0]; !m.CacheHit || m.Backend != "best" {
		t.Errorf("restarted daemon served backend %q, cache hit %v; want a best hit", m.Backend, m.CacheHit)
	}
	if warm.Key != cold[1].Key || warm.Machines[0].SyncTime != cold[1].Machines[0].SyncTime {
		t.Error("warm answer differs from the cold answer")
	}
	st := s2.Metrics().Stats()
	for _, stage := range []string{pipeline.StageSchedule, pipeline.StageSimulate} {
		if n := st.Stage(stage).Count; n != 0 {
			t.Errorf("warm best request ran %s %d times, want 0", stage, n)
		}
	}
}

// TestNetFaults: an injected network delay serves slow, not wrong — the
// request still answers 200 and the injection is counted.
func TestNetFaults(t *testing.T) {
	in := faults.MustNew(faults.Plan{
		NetDelay: 1, DelayFor: 5 * time.Millisecond,
		Stages: []string{faults.StageNet},
	})
	s := newTestServer(t, Config{FaultHook: in.Probe})
	start := time.Now()
	w, body := post(t, s.Handler(), ScheduleRequest{Source: fig1}, nil)
	decodeOK(t, w, body)
	if time.Since(start) < 5*time.Millisecond {
		t.Error("request did not observe the injected delay")
	}
	if c := in.Counts(); c.NetDelays < 1 {
		t.Errorf("counts = %s, want a net delay", c)
	}
}

// TestHealthAndStats: the observability endpoints answer well-formed JSON.
func TestHealthAndStats(t *testing.T) {
	s := newTestServer(t, Config{DiskDir: t.TempDir()})
	h := s.Handler()
	for _, path := range []string{"/healthz", "/stats"} {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Errorf("%s = %d", path, w.Code)
			continue
		}
		var v map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestRequestAccounting: every answer /v1/schedule gives lands in exactly
// one response class, so requests_total is their sum. A 405 counts as a
// client error, carries its request ID and lands in the flight recorder
// like every other refusal.
func TestRequestAccounting(t *testing.T) {
	s := newTestServer(t, Config{RatePerSec: 1e-6, Burst: 2})
	h := s.Handler()
	send := func(method, body string, want int) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, "/v1/schedule", strings.NewReader(body)))
		if w.Code != want {
			t.Fatalf("%s %q: status %d, want %d (%s)", method, body, w.Code, want, w.Body)
		}
		return w
	}
	fig1Body := fmt.Sprintf(`{"name":"fig1","source":%q}`, fig1)
	w := send(http.MethodGet, "", http.StatusMethodNotAllowed)
	if w.Header().Get("Allow") != http.MethodPost || decodeErr(t, w.Body.Bytes()).RequestID == "" {
		t.Errorf("405: Allow %q, body %s; want Allow POST and a request ID", w.Header().Get("Allow"), w.Body)
	}
	send(http.MethodPost, "{not json", http.StatusBadRequest)
	send(http.MethodPost, fig1Body, http.StatusOK)
	send(http.MethodPost, fig1Body, http.StatusOK)
	send(http.MethodPost, fig1Body, http.StatusTooManyRequests)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	send(http.MethodPost, fig1Body, http.StatusServiceUnavailable)

	st := s.sm.snapshot(s.breakers.openCount())
	want := Stats{Requests: 6, ResponsesOK: 2, ClientErrors: 2, Flights: 2, ShedRate: 1, ShedDraining: 1}
	if st != want {
		t.Errorf("counters = %+v, want %+v", st, want)
	}
	if sum := st.ResponsesOK + st.ClientErrors + st.ServerErrors + st.Timeouts +
		st.ShedRate + st.ShedQueue + st.ShedBreaker + st.ShedDraining; sum != st.Requests {
		t.Errorf("response classes sum to %d, requests_total = %d", sum, st.Requests)
	}
	if rec := get(h, "/debug/flightrecord").Body.String(); !strings.Contains(rec, `"status":405`) {
		t.Errorf("the 405 is missing from the flight record:\n%s", rec)
	}
}

// TestAdminSurface: scheduld serves obs.Server's admin routes next to its
// own: pprof always, and the span endpoints when the pipeline options carry
// an Observer.
func TestAdminSurface(t *testing.T) {
	plain := newTestServer(t, Config{}).Handler()
	if w := get(plain, "/debug/pprof/cmdline"); w.Code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d, want 200", w.Code)
	}
	for _, path := range []string{"/trace", "/trace.jsonl"} {
		if w := get(plain, path); w.Code != http.StatusNotFound {
			t.Errorf("%s without an Observer = %d, want 404", path, w.Code)
		}
	}

	traced := newTestServer(t, Config{Pipeline: pipeline.Options{Observer: obs.NewRecorder(256)}}).Handler()
	w, body := post(t, traced, ScheduleRequest{Name: "fig1", Source: fig1}, nil)
	decodeOK(t, w, body)
	if w := get(traced, "/trace"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "traceEvents") {
		t.Errorf("/trace with an Observer = %d %.200s", w.Code, w.Body)
	}
	if w := get(traced, "/trace.jsonl"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"name":"fig1"`) {
		t.Errorf("/trace.jsonl with an Observer = %d %.200s", w.Code, w.Body)
	}
	var hz map[string]any
	if err := json.Unmarshal(get(traced, "/healthz").Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz["spans"] == nil || hz["status"] != "ok" || hz["cache_entries"] == nil {
		t.Errorf("/healthz with an Observer = %v, want span occupancy next to the daemon's fields", hz)
	}
}
