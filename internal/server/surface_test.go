package server

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// get serves one GET through the handler.
func get(h http.Handler, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// pinnedSequence drives a rate-limited daemon with a disk tier through the
// request mix the admin-surface pins are taken after: two identical fig1
// 200s (a cold compile, then a cache hit), a malformed body, an unknown
// backend, and a fig1 request shed 429 because the two-token bucket is
// empty and refills once every ~10 days.
func pinnedSequence(t *testing.T) (*Server, http.Handler) {
	t.Helper()
	s := newTestServer(t, Config{DiskDir: t.TempDir(), RatePerSec: 1e-6, Burst: 2})
	h := s.Handler()
	for i := 0; i < 2; i++ {
		w, body := post(t, h, ScheduleRequest{Name: "fig1", Source: fig1}, nil)
		decodeOK(t, w, body)
	}
	for _, tc := range []struct {
		body string
		code int
	}{
		{"{not json", http.StatusBadRequest},
		{fmt.Sprintf(`{"source":%q,"backend":"bogus"}`, fig1), http.StatusBadRequest},
		{fmt.Sprintf(`{"name":"fig1","source":%q}`, fig1), http.StatusTooManyRequests},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(tc.body)))
		if w.Code != tc.code {
			t.Fatalf("%s: status %d, want %d (%s)", tc.body, w.Code, tc.code, w.Body)
		}
	}
	return s, h
}

// TestMetricsGolden pins scheduld's whole /metrics exposition, both the
// pipeline's doacross_* families and the daemon's scheduld_* ones, after
// pinnedSequence. The values of the stage-latency histogram's buckets and
// sums depend on timing and are masked; every other line, and the
// Content-Type, must match testdata/metrics.golden exactly.
// Regenerate with: go test ./internal/server -run MetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	_, h := pinnedSequence(t)
	w := get(h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", w.Code)
	}
	if ct, want := w.Header().Get("Content-Type"), "text/plain; version=0.0.4; charset=utf-8"; ct != want {
		t.Errorf("Content-Type = %q, want %q", ct, want)
	}
	lines := strings.SplitAfter(w.Body.String(), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "doacross_stage_duration_seconds_bucket{") ||
			strings.HasPrefix(line, "doacross_stage_duration_seconds_sum{") {
			lines[i] = line[:strings.LastIndexByte(line, ' ')] + " _\n"
		}
	}
	got := strings.Join(lines, "")
	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("/metrics drifted from %s.\n--- got ---\n%s", path, got)
	}
}

// keys returns the sorted keys of a JSON object.
func keys(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%v (%s)", err, raw)
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// marshalledKeys is keys of v's JSON encoding.
func marshalledKeys(t *testing.T, v any) []string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return keys(t, b)
}

func sameKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s keys = %v, want %v", what, got, want)
	}
}

// TestHealthzKeys pins /healthz's key set and the meaning of its values:
// status turns from "ok" to "draining" on Shutdown, the occupancy fields
// read the cache and the disk tier, and the disk fields appear only with a
// disk tier.
func TestHealthzKeys(t *testing.T) {
	base := []string{"status", "uptime_seconds", "inflight", "queued", "cache_entries"}

	plain := newTestServer(t, Config{})
	sameKeys(t, "/healthz without a disk tier", keys(t, get(plain.Handler(), "/healthz").Body.Bytes()), base)

	s, h := pinnedSequence(t)
	w := get(h, "/healthz")
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/healthz Content-Type = %q", ct)
	}
	sameKeys(t, "/healthz", keys(t, w.Body.Bytes()), append(base, "disk_entries", "disk_loaded"))
	var hz struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		InFlight      int64   `json:"inflight"`
		Queued        int64   `json:"queued"`
		CacheEntries  int     `json:"cache_entries"`
		DiskEntries   int     `json:"disk_entries"`
		DiskLoaded    int     `json:"disk_loaded"`
	}
	decode := func() {
		t.Helper()
		if err := json.Unmarshal(get(h, "/healthz").Body.Bytes(), &hz); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if hz.Status != "ok" || hz.UptimeSeconds <= 0 || hz.InFlight != 0 || hz.Queued != 0 {
		t.Errorf("/healthz = %+v, want status ok, positive uptime, nothing in flight", hz)
	}
	if hz.CacheEntries != s.cache.Len() || hz.CacheEntries == 0 {
		t.Errorf("cache_entries = %d, cache holds %d", hz.CacheEntries, s.cache.Len())
	}
	if hz.DiskEntries != s.disk.Len() || hz.DiskEntries == 0 || hz.DiskLoaded != 0 {
		t.Errorf("disk_entries/disk_loaded = %d/%d, tier holds %d and loaded none",
			hz.DiskEntries, hz.DiskLoaded, s.disk.Len())
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	decode()
	if hz.Status != "draining" {
		t.Errorf("/healthz status after Shutdown = %q, want draining", hz.Status)
	}
}

// TestStatsKeys pins /stats's key set: the daemon counters under "server",
// the pipeline registry's snapshot under "pipeline", and with a disk tier
// its counters and warm-start outcome under "disk" and "load".
func TestStatsKeys(t *testing.T) {
	plain := newTestServer(t, Config{})
	sameKeys(t, "/stats without a disk tier", keys(t, get(plain.Handler(), "/stats").Body.Bytes()),
		[]string{"server", "pipeline"})

	s, h := pinnedSequence(t)
	w := get(h, "/stats")
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("/stats Content-Type = %q", ct)
	}
	var st map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	sameKeys(t, "/stats", keys(t, w.Body.Bytes()), []string{"server", "pipeline", "disk", "load"})
	sameKeys(t, "/stats server", keys(t, st["server"]), []string{
		"requests", "responses_ok", "client_errors", "server_errors", "timeouts",
		"flights", "coalesced", "shed_ratelimit", "shed_queue", "shed_breaker",
		"shed_draining", "breaker_opens", "net_faults",
	})
	sameKeys(t, "/stats pipeline", keys(t, st["pipeline"]), marshalledKeys(t, s.metrics.Stats()))
	sameKeys(t, "/stats disk", keys(t, st["disk"]), marshalledKeys(t, s.disk.Stats()))
	sameKeys(t, "/stats load", keys(t, st["load"]), marshalledKeys(t, s.loadStats))
	var srv Stats
	if err := json.Unmarshal(st["server"], &srv); err != nil {
		t.Fatal(err)
	}
	want := Stats{Requests: 5, ResponsesOK: 2, ClientErrors: 2, Flights: 2, ShedRate: 1}
	if srv != want {
		t.Errorf("/stats server = %+v, want %+v", srv, want)
	}
}
