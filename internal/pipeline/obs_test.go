package pipeline

// Tests of the observability layer as wired into the pipeline: the span tree
// a real batch records, and the chaos scrape test that hammers the admin
// surface while a fault-injected batch runs (in CI this runs under -race).

import (
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"doacross/internal/faults"
	"doacross/internal/obs"
)

// TestSpanTree: a traced batch records the full batch → request → stage →
// pass hierarchy, one request span per loop with its stages nested inside.
func TestSpanTree(t *testing.T) {
	rec := obs.NewRecorder(0)
	srcs := corpus(6)
	b := run(t, srcs, Options{Workers: 3, Observer: rec})
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}

	spans := rec.Snapshot()
	tree := obs.BuildTree(spans)
	var batches, requests, stages, passes int
	for _, s := range spans {
		switch s.Kind {
		case obs.KindBatch:
			batches++
		case obs.KindRequest:
			requests++
		case obs.KindStage:
			stages++
			if s.Name != "compile" && s.Name != StageSchedule && s.Name != StageVerify && s.Name != StageSimulate {
				t.Errorf("unexpected stage span %q", s.Name)
			}
		case obs.KindPass:
			passes++
			// Every pass span chains pass → stage → request → batch.
			path := tree.Path(s.ID)
			want := []obs.Kind{obs.KindBatch, obs.KindRequest, obs.KindStage, obs.KindPass}
			if len(path) != len(want) {
				t.Fatalf("pass %q path %v, want %v", s.Name, path, want)
			}
			for i := range want {
				if path[i] != want[i] {
					t.Fatalf("pass %q path %v, want %v", s.Name, path, want)
				}
			}
		}
	}
	if batches != 1 {
		t.Errorf("got %d batch spans, want 1", batches)
	}
	if requests != len(srcs) {
		t.Errorf("got %d request spans, want %d", requests, len(srcs))
	}
	// Each request runs compile, schedule, verify and simulate (one machine).
	if stages != 4*len(srcs) {
		t.Errorf("got %d stage spans, want %d", stages, 4*len(srcs))
	}
	if passes == 0 {
		t.Error("no pass spans recorded")
	}
	// Stage spans live on their request's track (parallel-lane rendering).
	for _, s := range spans {
		if s.Kind != obs.KindStage {
			continue
		}
		parent, ok := tree.ByID[s.Parent]
		if !ok {
			t.Fatalf("stage %q has no parent in snapshot", s.Name)
		}
		if s.Track != parent.Track {
			t.Errorf("stage %q track %d, parent track %d", s.Name, s.Track, parent.Track)
		}
	}
}

// stageSpans renders every stage span of a snapshot as "name key=value ...",
// attributes in recorded order.
func stageSpans(spans []obs.Span) []string {
	var out []string
	for _, s := range spans {
		if s.Kind != obs.KindStage {
			continue
		}
		line := s.Name
		for _, a := range s.Attrs {
			if a.Str != "" {
				line += fmt.Sprintf(" %s=%s", a.Key, a.Str)
			} else {
				line += fmt.Sprintf(" %s=%d", a.Key, a.Int)
			}
		}
		out = append(out, line)
	}
	return out
}

// TestSpanAttrs pins every stage span's attributes, keys and values, for a
// fresh request, a cache hit (no check span), a request degraded at the
// schedule stage and one degraded at the simulate stage. The last one runs
// at another trip count over the warm cache: its schedules are hits, its
// timing is not.
func TestSpanAttrs(t *testing.T) {
	fail := func(stage string) func(string, string) error {
		return func(s, _ string) error {
			if s == stage {
				return errors.New("synthetic " + stage + " failure")
			}
			return nil
		}
	}
	cache := NewCache()
	const m = "machine=4-issue(#FU=1)"
	for _, tc := range []struct {
		name  string
		n     int
		cache *Cache
		hook  func(string, string) error
		want  []string
	}{
		{"fresh", 100, cache, nil, []string{
			"compile cache_hit=0",
			"schedule " + m + " cache_hit=0 degraded=0",
			"check " + m + " degraded=0",
			"simulate " + m + " cache_hit=0 degraded=0 signals_sent=100 wait_stall_cycles=19600 lbd_arcs=1 lfd_arcs=1 sync_cycles=411 list_cycles=1400",
		}},
		{"hit", 100, cache, nil, []string{
			"compile cache_hit=1",
			"schedule " + m + " cache_hit=1 degraded=0",
			"simulate " + m + " cache_hit=1 degraded=0 signals_sent=100 wait_stall_cycles=19600 lbd_arcs=1 lfd_arcs=1 sync_cycles=411 list_cycles=1400",
		}},
		{"schedule-degraded", 100, nil, fail(StageSchedule), []string{
			"compile cache_hit=0",
			"schedule " + m + " cache_hit=0 degraded=1",
			"check " + m + " degraded=1",
			"simulate " + m + " cache_hit=0 degraded=1 signals_sent=100 wait_stall_cycles=69300 lbd_arcs=2 lfd_arcs=0 sync_cycles=1400 list_cycles=1400",
		}},
		{"simulate-degraded", 200, cache, fail(StageSimulate), []string{
			"compile cache_hit=1",
			"schedule " + m + " cache_hit=1 degraded=0",
			"simulate " + m + " cache_hit=0 degraded=1 signals_sent=200 wait_stall_cycles=278600 lbd_arcs=2 lfd_arcs=0 sync_cycles=2800 list_cycles=2800",
		}},
	} {
		rec := obs.NewRecorder(0)
		b, err := Run([]Request{{Name: tc.name, Source: fig1, N: tc.n}},
			Options{Workers: 1, Cache: tc.cache, FaultHook: tc.hook, Observer: rec})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.FirstErr(); err != nil {
			t.Fatal(err)
		}
		if mr := b.Loops[0].Machines[0]; mr.CacheHit && mr.Degraded {
			t.Errorf("%s: a degraded result reports a cache hit", tc.name)
		}
		got := stageSpans(rec.Snapshot())
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s: stage spans\n%s\nwant\n%s", tc.name, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}

// TestSpanTreeDisabled: a nil Observer must record nothing and change
// nothing — the disabled path is exercised by every other pipeline test, but
// pin the explicit contract here.
func TestSpanTreeDisabled(t *testing.T) {
	var rec *obs.Recorder
	b := run(t, corpus(2), Options{Observer: rec})
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Snapshot(); got != nil {
		t.Fatalf("nil observer recorded %d spans", len(got))
	}
}

// TestChaosScrapeMetrics drives a fault-injected batch while goroutines
// concurrently scrape the admin surface and snapshot the span ring — the
// -race CI job turns any unsynchronized access in the hot path into a
// failure. Afterwards the final exposition and trace must be well-formed.
func TestChaosScrapeMetrics(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 80
	}
	in := faults.MustNew(faults.Plan{
		Seed:     1997,
		Error:    0.05,
		Panic:    0.04,
		Budget:   0.04,
		DelayFor: 0,
	})
	metrics := NewMetrics()
	rec := obs.NewRecorder(1024)
	srv := &obs.Server{
		Recorder: rec,
		Metrics:  metrics.WritePrometheus,
		Stats:    func() any { return metrics.Stats() },
	}
	handler := srv.Handler()

	done := make(chan struct{})
	var scrapers sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/stats", "/trace", "/healthz"} {
					w := httptest.NewRecorder()
					handler.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
					if w.Code != 200 {
						t.Errorf("%s returned %d mid-batch", path, w.Code)
						return
					}
					_, _ = io.Copy(io.Discard, w.Result().Body)
				}
				if tr := obs.BuildTree(rec.Snapshot()); tr == nil {
					t.Error("snapshot tree nil")
					return
				}
			}
		}()
	}

	b, err := Run(reqsFor(corpus(n)), Options{
		Workers:   8,
		Cache:     NewCacheBounded(64),
		Metrics:   metrics,
		FaultHook: in.Hook(),
		Observer:  rec,
	})
	close(done)
	scrapers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Loops) != n {
		t.Fatalf("got %d results for %d requests", len(b.Loops), n)
	}

	// Final exposition: well-formed histogram plus the chaos counters.
	w := httptest.NewRecorder()
	handler.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE doacross_stage_duration_seconds histogram",
		`doacross_stage_duration_seconds_bucket{stage="schedule",le="+Inf"}`,
		"doacross_sim_signals_sent_total",
		"doacross_workers_in_flight 0",
		"doacross_queue_depth 0",
		"doacross_cache_entries",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("final /metrics missing %q", want)
		}
	}
	// The span ring survived the batch: one batch root, every span's parent
	// resolvable or promoted to root, and the Chrome export is valid JSON
	// (exercised via the /trace endpoint above; here check shape).
	spans := rec.Snapshot()
	if len(spans) == 0 {
		t.Fatal("no spans recorded under chaos")
	}
	tree := obs.BuildTree(spans)
	if len(tree.Children[0]) == 0 {
		t.Fatal("no root spans in tree")
	}
	st := metrics.Stats()
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Errorf("gauges not drained: inflight=%d queue=%d", st.InFlight, st.QueueDepth)
	}
}
