package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"doacross/internal/dfg"
	"doacross/internal/pipeline"
)

// countsLine renders the pipeline counters a request sequence is held to.
func countsLine(st pipeline.Stats) string {
	return fmt.Sprintf("hits=%d misses=%d parse=%d schedule=%d check=%d simulate=%d fallbacks=%d verified=%d timeouts=%d entries=%d evictions=%d",
		st.CacheHits, st.CacheMisses, st.Stage("parse").Count, st.Stage(pipeline.StageSchedule).Count,
		st.Stage(pipeline.StageVerify).Count, st.Stage(pipeline.StageSimulate).Count,
		st.Fallbacks, st.Verified, st.Timeouts, st.CacheEntries, st.CacheEvictions)
}

// TestRequestCountsOnce holds one daemon's counters, request by request,
// to the values recorded for the same sequence before memory hits were
// answered outside the flight group: a cold fig1; fig1 at n = 1000 (its
// compilation and schedules hit, its timing misses); the same request
// again, a full hit; fig1 under the best backend; and a full hit whose
// "cache" fault probe fires, so it recomputes without reading the cache.
// It runs on an unbounded cache and on one of eight entries, which
// evicts. Every request counts once in the pipeline's counters and in
// /stats, wherever it was answered.
func TestRequestCountsOnce(t *testing.T) {
	steps := []ScheduleRequest{
		{Name: "fig1", Source: fig1},
		{Name: "fig1", Source: fig1, N: 1000},
		{Name: "fig1", Source: fig1, N: 1000},
		{Name: "fig1", Source: fig1, Backend: "best"},
		{Name: "nocache", Source: fig1, N: 1000},
	}
	want := map[int][]string{
		0: {
			"hits=0 misses=3 parse=1 schedule=1 check=1 simulate=1 fallbacks=0 verified=1 timeouts=0 entries=3 evictions=0 cache_hit=false",
			"hits=2 misses=4 parse=1 schedule=1 check=1 simulate=2 fallbacks=0 verified=1 timeouts=0 entries=4 evictions=0 cache_hit=true",
			"hits=5 misses=4 parse=1 schedule=1 check=1 simulate=2 fallbacks=0 verified=1 timeouts=0 entries=4 evictions=0 cache_hit=true",
			"hits=6 misses=6 parse=1 schedule=2 check=2 simulate=3 fallbacks=0 verified=2 timeouts=0 entries=6 evictions=0 cache_hit=false",
			"hits=6 misses=6 parse=2 schedule=3 check=3 simulate=4 fallbacks=0 verified=3 timeouts=0 entries=6 evictions=0 cache_hit=false",
		},
		8: {
			"hits=0 misses=3 parse=1 schedule=1 check=1 simulate=1 fallbacks=0 verified=1 timeouts=0 entries=3 evictions=0 cache_hit=false",
			"hits=2 misses=4 parse=1 schedule=1 check=1 simulate=2 fallbacks=0 verified=1 timeouts=0 entries=4 evictions=0 cache_hit=true",
			"hits=5 misses=4 parse=1 schedule=1 check=1 simulate=2 fallbacks=0 verified=1 timeouts=0 entries=4 evictions=0 cache_hit=true",
			"hits=6 misses=6 parse=1 schedule=2 check=2 simulate=3 fallbacks=0 verified=2 timeouts=0 entries=4 evictions=2 cache_hit=false",
			"hits=6 misses=6 parse=2 schedule=3 check=3 simulate=4 fallbacks=0 verified=3 timeouts=0 entries=4 evictions=2 cache_hit=false",
		},
	}
	wantServer := Stats{Requests: 5, ResponsesOK: 5, Flights: 5}
	for _, capacity := range []int{0, 8} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			hook := func(stage, name string) error {
				if stage == "cache" && name == "nocache" {
					return errors.New("injected cache fault")
				}
				return nil
			}
			s := newTestServer(t, Config{CacheCap: capacity, FaultHook: hook})
			h := s.Handler()
			for i, req := range steps {
				w, body := post(t, h, req, nil)
				resp := decodeOK(t, w, body)
				got := countsLine(s.Metrics().Stats()) + fmt.Sprintf(" cache_hit=%v", resp.Machines[0].CacheHit)
				if got != want[capacity][i] {
					t.Errorf("after request %d (%s, n=%d, backend %q):\n got %s\nwant %s",
						i, req.Name, req.N, req.Backend, got, want[capacity][i])
				}
			}
			var st struct {
				Server   Stats          `json:"server"`
				Pipeline pipeline.Stats `json:"pipeline"`
			}
			if err := json.Unmarshal(get(h, "/stats").Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if st.Server != wantServer {
				t.Errorf("/stats server = %+v, want %+v", st.Server, wantServer)
			}
			if got, want := countsLine(st.Pipeline), countsLine(s.Metrics().Stats()); got != want {
				t.Errorf("/stats pipeline = %s, want %s", got, want)
			}
		})
	}
}

// servedBody masks what a 200 body says about how it was obtained — the
// request ID, the cache-hit flags and the coalesced flag — leaving the
// answer.
var servedBody = regexp.MustCompile(`"(request_id|cache_hit|coalesced)":("[^"]*"|true|false)`)

// TestConcurrentHitsAndMisses: four goroutines mix memory hits and misses
// over a cache of eight entries, so evictions race the daemon's
// is-it-cached probe. No request fails, and every body equals the body a
// daemon serving the same request alone returns.
func TestConcurrentHitsAndMisses(t *testing.T) {
	var reqs []ScheduleRequest
	for _, src := range []string{fig1, pairLoop, abandonedLoop} {
		for _, n := range []int{0, 250, 1000} {
			reqs = append(reqs, ScheduleRequest{Name: "mix", Source: src, N: n})
		}
	}
	serial := make([]string, len(reqs))
	for i, req := range reqs {
		w, body := post(t, newTestServer(t, Config{}).Handler(), req, nil)
		decodeOK(t, w, body)
		serial[i] = servedBody.ReplaceAllString(string(body), `"$1":_`)
	}

	s := newTestServer(t, Config{CacheCap: 8})
	h := s.Handler()
	const goroutines, rounds = 4, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				// Each goroutine walks the requests at its own stride, so
				// the same problem is asked for again soon (a hit, unless
				// evicted) and by several goroutines at once.
				i := (g + k*(g+1)) % len(reqs)
				body, err := json.Marshal(reqs[i])
				if err != nil {
					t.Error(err)
					return
				}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(string(body))))
				if w.Code != http.StatusOK {
					t.Errorf("request %d: status %d: %s", i, w.Code, w.Body)
					return
				}
				if got := servedBody.ReplaceAllString(w.Body.String(), `"$1":_`); got != serial[i] {
					t.Errorf("request %d: body\n%s\nwant\n%s", i, got, serial[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.sm.snapshot(s.breakers.openCount())
	if st.Requests != goroutines*rounds || st.ResponsesOK != st.Requests || st.Flights+st.Coalesced != st.Requests {
		t.Errorf("counters %+v: want every request answered 200 and counted once as a flight or a coalesced one", st)
	}
	if s.cache.Evictions() == 0 {
		t.Error("the eight-entry cache evicted nothing; the test does not race evictions")
	}
}

// TestEvictedHitRecomputesOnHandler: a cold request runs in a flight and a
// warm hit on its handler goroutine, outside any flight. A request whose
// entries were cached when the handler checked but are evicted before Run
// reads them recomputes there too: it is not coalesced, counts as a flight
// and answers what the cold request answered.
func TestEvictedHitRecomputesOnHandler(t *testing.T) {
	var s *Server
	var live []int
	hook := func(stage, _ string) error {
		if stage != "cache" {
			return nil
		}
		flights, _ := s.flights.Stats()
		live = append(live, flights)
		if len(live) == 3 {
			// The third request: one new key per shard of the eight-entry
			// cache (one entry a shard) evicts every entry it is about to
			// read.
			for b := 0; b < 32; b++ {
				s.cache.Put(dfg.Fingerprint{byte(b), 0xee}, nil)
			}
		}
		return nil
	}
	s = newTestServer(t, Config{CacheCap: 8, FaultHook: hook})
	h := s.Handler()
	var bodies []string
	for i, step := range []string{"cold", "hit", "evicted"} {
		w, body := post(t, h, ScheduleRequest{Name: "fig1", Source: fig1}, nil)
		resp := decodeOK(t, w, body)
		if resp.Coalesced || resp.Machines[0].CacheHit != (i == 1) {
			t.Errorf("%s: coalesced %v, cache hit %v", step, resp.Coalesced, resp.Machines[0].CacheHit)
		}
		bodies = append(bodies, servedBody.ReplaceAllString(string(body), `"$1":_`))
	}
	if want := []int{1, 0, 0}; fmt.Sprint(live) != fmt.Sprint(want) {
		t.Errorf("live flights while each request ran = %v, want %v", live, want)
	}
	if bodies[2] != bodies[0] {
		t.Errorf("recomputed body\n%s\nwant the cold one\n%s", bodies[2], bodies[0])
	}
	st := s.Metrics().Stats()
	if st.CacheMisses != 6 || st.Stage("parse").Count != 2 {
		t.Errorf("cache misses %d and compilations %d, want 6 and 2", st.CacheMisses, st.Stage("parse").Count)
	}
	if got := s.sm.snapshot(0); got.Flights != 3 || got.Coalesced != 0 {
		t.Errorf("flights %d, coalesced %d; want 3 and 0", got.Flights, got.Coalesced)
	}
}

// hitServer returns a function that serves one warm fig1 request through
// a fresh daemon's Handler, the request carrying an X-Request-Id as
// server.Client's do, after serving it once to fill the cache.
func hitServer(tb testing.TB) func() {
	s, err := New(Config{})
	if err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	body, err := json.Marshal(ScheduleRequest{Name: "fig1", Source: fig1})
	if err != nil {
		tb.Fatal(err)
	}
	serve := func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(string(body)))
		r.Header.Set("X-Request-Id", "hit")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			tb.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	serve()
	return serve
}

// BenchmarkServeHit serves a warm fig1 hit through Handler.
func BenchmarkServeHit(b *testing.B) {
	serve := hitServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// pcHandler keeps the PC of every record it handles.
type pcHandler struct {
	mu  sync.Mutex
	pcs []uintptr
}

func (h *pcHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *pcHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *pcHandler) WithGroup(string) slog.Handler            { return h }
func (h *pcHandler) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	h.pcs = append(h.pcs, r.PC)
	h.mu.Unlock()
	return nil
}

// TestDecisionLogWithoutPC: the schedule handler's decision log records
// reach the configured handler without a caller PC, served and refused
// alike.
func TestDecisionLogWithoutPC(t *testing.T) {
	ph := &pcHandler{}
	h := newTestServer(t, Config{Logger: slog.New(ph)}).Handler()
	w, body := post(t, h, ScheduleRequest{Name: "fig1", Source: fig1}, nil)
	decodeOK(t, w, body)
	if w, _ := post(t, h, ScheduleRequest{Name: "fig1"}, nil); w.Code != http.StatusBadRequest {
		t.Fatalf("request without source: status %d, want 400", w.Code)
	}
	if len(ph.pcs) != 2 {
		t.Fatalf("handler saw %d records, want 2", len(ph.pcs))
	}
	for i, pc := range ph.pcs {
		if pc != 0 {
			t.Errorf("record %d carries PC %#x, want 0", i, pc)
		}
	}
}
