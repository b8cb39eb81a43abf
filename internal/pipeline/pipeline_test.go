package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"doacross/internal/diag"
	"doacross/internal/dlx"
	"doacross/internal/lang"
)

const fig1 = `DO I = 1, N
S1: B[I] = A[I-2] + E[I+1]
S2: G[I-3] = A[I-1] * E[I+2]
S3: A[I] = B[I] + C[I+3]
ENDDO`

// corpus returns count loop sources cycling over distinct shapes; shape
// parameters are varied so different indices produce different graphs.
func corpus(count int) []string {
	shapes := []func(i int) string{
		func(i int) string {
			return fmt.Sprintf("DO I = 1, N\nA[I] = A[I-%d] + %d\nENDDO", i%3+1, i)
		},
		func(i int) string {
			return fmt.Sprintf("DO I = 1, N\nS1: B[I] = A[I-1] * C[I+%d]\nS2: A[I] = B[I] + E[I]\nENDDO", i%4)
		},
		func(i int) string { return fig1 },
		func(i int) string {
			return fmt.Sprintf("DO I = 1, N\nS = S + A[I] * %d\nENDDO", i%5)
		},
	}
	out := make([]string, count)
	for i := range out {
		out[i] = shapes[i%len(shapes)](i / len(shapes))
	}
	return out
}

func run(t *testing.T, srcs []string, opt Options) *Batch {
	t.Helper()
	reqs := make([]Request, len(srcs))
	for i, s := range srcs {
		reqs[i] = Request{Source: s}
	}
	b, err := Run(reqs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunBasics(t *testing.T) {
	b := run(t, []string{fig1}, Options{})
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	lr := b.Loops[0]
	if lr.N != 100 {
		t.Errorf("default N = %d, want 100", lr.N)
	}
	if len(lr.Machines) != 1 {
		t.Fatalf("machines = %d, want 1", len(lr.Machines))
	}
	mr := lr.Machines[0]
	if mr.List == nil || mr.Sync == nil {
		t.Fatal("missing schedules")
	}
	if mr.Best != nil {
		t.Error("Best built without Options.Best")
	}
	if err := mr.List.Validate(); err != nil {
		t.Error(err)
	}
	if err := mr.Sync.Validate(); err != nil {
		t.Error(err)
	}
	if mr.SyncTime > mr.ListTime {
		t.Errorf("sync %d slower than list %d on the paper's loop", mr.SyncTime, mr.ListTime)
	}
	if lr.DoacrossSource() == "" || lr.Listing() == "" || lr.GraphInfo() == "" {
		t.Error("empty render helpers")
	}
	// Stats must show the stage work.
	for _, st := range b.Stats.Stages {
		if st.Count == 0 {
			t.Errorf("stage %s never ran", st.Stage)
		}
	}
}

func TestRunBest(t *testing.T) {
	b := run(t, corpus(8), Options{Best: true, Machines: dlx.PaperConfigs()})
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for _, lr := range b.Loops {
		for _, mr := range lr.Machines {
			if mr.Best == nil {
				t.Fatal("missing Best schedule")
			}
			if mr.BestTime > mr.ListTime || mr.BestTime > mr.SyncTime {
				t.Errorf("%s %s: best %d worse than list %d or sync %d",
					lr.Name, mr.Machine, mr.BestTime, mr.ListTime, mr.SyncTime)
			}
		}
	}
}

// numeric projects the worker-independent portion of a batch result (cache
// hit flags may legitimately differ between runs).
func numeric(b *Batch) string {
	var sb strings.Builder
	for _, lr := range b.Loops {
		fmt.Fprintf(&sb, "%d %s err=%v n=%d", lr.Index, lr.Name, lr.Err, lr.N)
		for _, mr := range lr.Machines {
			fmt.Fprintf(&sb, " [%s key=%s list=%d/%d/%d sync=%d/%d/%d best=%d imp=%.4f]",
				mr.Machine, mr.Key, mr.ListTime, mr.ListStalls, mr.ListLBD,
				mr.SyncTime, mr.SyncStalls, mr.SyncLBD, mr.BestTime, mr.Improvement)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestWorkersDeterminism is the satellite concurrency contract: the same
// batch run with -j 1 and -j 8 yields identical results, with and without a
// shared cache (run under -race in CI).
func TestWorkersDeterminism(t *testing.T) {
	srcs := corpus(32)
	for _, cached := range []bool{false, true} {
		var want string
		for _, workers := range []int{1, 8} {
			opt := Options{Workers: workers, Machines: dlx.PaperConfigs(), Best: true}
			if cached {
				opt.Cache = NewCache()
			}
			b := run(t, srcs, opt)
			if err := b.FirstErr(); err != nil {
				t.Fatal(err)
			}
			got := numeric(b)
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("cached=%v: -j %d diverges from -j 1:\n%s\nvs\n%s", cached, workers, got, want)
			}
		}
	}
}

func TestCacheHitsOnRepeatedShapes(t *testing.T) {
	// The same loop under two names: the second must hit all three memo
	// levels (compile, schedule, timing). One worker runs the duplicate after
	// the original, so the counts do not depend on goroutine timing.
	cache := NewCache()
	b := run(t, []string{fig1, fig1}, Options{Workers: 1, Cache: cache})
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if b.Stats.CacheHits != 3 || b.Stats.CacheMisses != 3 {
		t.Errorf("hits/misses = %d/%d, want 3/3", b.Stats.CacheHits, b.Stats.CacheMisses)
	}
	if b.Loops[0].Machines[0].Key != b.Loops[1].Machines[0].Key {
		t.Error("identical loops produced different cache keys")
	}
	if !b.Loops[1].Machines[0].CacheHit {
		t.Error("second loop not marked as a cache hit")
	}
	// A second batch over the same cache hits everything: no stage reruns.
	b2 := run(t, []string{fig1, fig1}, Options{Cache: cache})
	if b2.Stats.CacheHits != 6 || b2.Stats.CacheMisses != 0 {
		t.Errorf("second batch hits/misses = %d/%d, want 6/0", b2.Stats.CacheHits, b2.Stats.CacheMisses)
	}
	for _, st := range b2.Stats.Stages {
		if st.Count != 0 {
			t.Errorf("second batch ran %s %d times, want 0", st.Stage, st.Count)
		}
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	// Different trip counts share schedules but not timings.
	cache := NewCache()
	reqs := []Request{{Source: fig1, N: 10}, {Source: fig1, N: 1000}}
	b, err := Run(reqs, Options{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	// Loop 1 shares the compilation and the schedules but not the timing.
	if b.Stats.CacheHits != 2 {
		t.Errorf("hits = %d, want 2 (compile + schedule shared across N)", b.Stats.CacheHits)
	}
	if n := b.Stats.Stage("schedule").Count; n != 1 {
		t.Errorf("schedule ran %d times, want 1", n)
	}
	if n := b.Stats.Stage("simulate").Count; n != 2 {
		t.Errorf("simulate ran %d times, want 2 (timing keys on N)", n)
	}
	if b.Loops[0].Machines[0].ListTime == b.Loops[1].Machines[0].ListTime {
		t.Error("different trip counts simulated to the same time; timing memo over-shared")
	}
	// Different scheduler options must not share schedules (the compile
	// memo may still hit).
	b2 := run(t, []string{fig1}, Options{Cache: cache, Baseline: 1})
	if n := b2.Stats.Stage("schedule").Count; n != 1 {
		t.Errorf("different baseline reused schedules (schedule ran %d times, want 1)", n)
	}
}

func TestPerLoopErrors(t *testing.T) {
	b := run(t, []string{fig1, "DO I = ,\n"}, Options{})
	if b.Loops[0].Err != nil {
		t.Errorf("good loop failed: %v", b.Loops[0].Err)
	}
	if b.Loops[1].Err == nil {
		t.Error("bad loop succeeded")
	}
	if b.FirstErr() == nil {
		t.Error("FirstErr missed the failure")
	}
	if b.Stats.Stage("parse").Errors != 1 {
		t.Errorf("parse errors = %d, want 1", b.Stats.Stage("parse").Errors)
	}
	if _, err := Run([]Request{{}}, Options{}); err != nil {
		t.Errorf("empty request must fail per-loop, not batch-wide: %v", err)
	}
	if b := run(t, nil, Options{}); len(b.Loops) != 0 {
		t.Error("empty batch produced loops")
	}
}

// TestRequestValidation: malformed requests are rejected up front with a
// structured, positioned diagnostic instead of dying in the parser or the
// simulator.
func TestRequestValidation(t *testing.T) {
	loop := lang.MustParse(fig1)
	b, err := Run([]Request{
		{},                                   // neither Source nor Loop
		{Name: "neg", Source: fig1, N: -5},   // negative trip count
		{Name: "negloop", Loop: loop, N: -1}, // negative trip count, positioned
		{Name: "ok", Source: fig1},
		{Name: "huge", Source: fig1, N: MaxTrip + 1}, // above the admission bound
		{Name: "max", Source: fig1, N: MaxTrip},      // at the bound: admitted
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, wantMsg := range map[int]string{0: "neither Source nor Loop", 1: "negative trip count", 2: "negative trip count", 4: "exceeds the limit"} {
		lr := b.Loops[i]
		if lr.Err == nil {
			t.Fatalf("request %d accepted", i)
		}
		d, ok := diag.As(lr.Err)
		if !ok {
			t.Fatalf("request %d error is not a diagnostic: %v", i, lr.Err)
		}
		if d.Stage != "pipeline" {
			t.Errorf("request %d diagnostic stage = %q, want pipeline", i, d.Stage)
		}
		if !strings.Contains(d.Msg, wantMsg) {
			t.Errorf("request %d diagnostic = %q, want mention of %q", i, d.Msg, wantMsg)
		}
	}
	if d, _ := diag.As(b.Loops[2].Err); !d.Pos.IsValid() {
		t.Error("parsed-loop validation diagnostic lost the source position")
	}
	for _, i := range []int{3, 5} {
		if b.Loops[i].Err != nil {
			t.Errorf("valid request %s rejected: %v", b.Loops[i].Name, b.Loops[i].Err)
		}
	}
}

// TestFarDistanceBounded: a dependence distance far past the trip count
// costs the simulator no memory. The far loop at n = 100 with
// A[I-10000000] allocates under 1 MiB through Run (992 MiB when the
// simulator sized its iteration ring from the largest distance) and is
// timed as with A[I-100].
func TestFarDistanceBounded(t *testing.T) {
	far := func(d int) string {
		return fmt.Sprintf("DO I = 1, N\nS1: A[I] = A[I-1] + B[I]\nS2: C[I] = A[I-%d] + C[I-1]\nS3: E[I] = C[I-2] + A[I-3]\nENDDO", d)
	}
	ref := run(t, []string{far(100)}, Options{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := Run([]Request{{Source: far(10000000)}}, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(ref.FirstErr(), b.FirstErr()); err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("distance 10^7 at n=100: %d bytes allocated, want < 1 MiB", alloc)
	}
	got, want := b.Loops[0].Machines[0], ref.Loops[0].Machines[0]
	if got.ListTime != want.ListTime || got.SyncTime != want.SyncTime || got.SyncStalls != want.SyncStalls {
		t.Errorf("distance 10^7: list %d, sync %d, stalls %d; distance 100: list %d, sync %d, stalls %d",
			got.ListTime, got.SyncTime, got.SyncStalls, want.ListTime, want.SyncTime, want.SyncStalls)
	}
}

func TestRequestLoopAndNOverride(t *testing.T) {
	loop := lang.MustParse(fig1)
	b, err := Run([]Request{{Name: "parsed", Loop: loop, N: 7}}, Options{N: 50})
	if err != nil {
		t.Fatal(err)
	}
	lr := b.Loops[0]
	if lr.Err != nil {
		t.Fatal(lr.Err)
	}
	if lr.N != 7 {
		t.Errorf("N override = %d, want 7", lr.N)
	}
	if lr.Name != "parsed" {
		t.Errorf("name = %q", lr.Name)
	}
	if lr.Loop != loop {
		t.Error("parsed loop not used directly")
	}
}

func TestStatsString(t *testing.T) {
	// One worker: the duplicate runs after the original, so it hits every
	// cached stage and the hit rate is exactly one half.
	b := run(t, []string{fig1, fig1}, Options{Workers: 1, Cache: NewCache()})
	s := b.Stats.String()
	for _, want := range []string{"cache:", "hit rate", "parse", "analyze", "syncinsert", "codegen", "graph", "schedule", "simulate", "latency:"} {
		if !strings.Contains(s, want) {
			t.Errorf("stats report missing %q:\n%s", want, s)
		}
	}
	if b.Stats.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", b.Stats.HitRate())
	}
}

// TestInvalidMachine: unusable batch options fail the whole run before any
// work — an invalid machine, and a default trip count above MaxTrip (the
// per-request bound must not be bypassable through Options.N).
func TestInvalidMachine(t *testing.T) {
	bad := dlx.Config{Issue: 0}
	if _, err := Run([]Request{{Source: fig1}}, Options{Machines: []dlx.Config{bad}}); err == nil {
		t.Error("invalid machine accepted")
	}
	for _, n := range []int{MaxTrip + 1, 1 << 62} {
		metrics := NewMetrics()
		if b, err := Run([]Request{{Source: fig1}}, Options{N: n, Metrics: metrics}); err == nil {
			t.Errorf("Options.N=%d accepted: sync time %d", n, b.Loops[0].Machines[0].SyncTime)
		} else if !strings.Contains(err.Error(), "exceeds the limit") {
			t.Errorf("Options.N=%d: error %q does not name the limit", n, err)
		}
		if st := metrics.Stats(); len(st.Stages) != 0 || st.QueueDepth != 0 {
			t.Errorf("Options.N=%d: rejected batch ran %d stages, left %d queued", n, len(st.Stages), st.QueueDepth)
		}
	}
	if _, err := Run([]Request{{Source: fig1}}, Options{N: MaxTrip}); err != nil {
		t.Errorf("Options.N=MaxTrip rejected: %v", err)
	}
}

// TestTracedMaxTrip: with traced simulations (Options.Utilization) a
// request above MaxTracedTrip fails with a positioned diagnostic before any
// stage runs, and a default N above it is refused at validation; at the
// bound a traced request is served with its utilization reports, and an
// untraced batch keeps admitting up to MaxTrip.
func TestTracedMaxTrip(t *testing.T) {
	loop := lang.MustParse(fig1)
	var probes []string
	traced := Options{Utilization: true, FaultHook: func(stage, name string) error {
		probes = append(probes, stage+"/"+name)
		return nil
	}}
	b, err := Run([]Request{
		{Name: "over", Source: fig1, N: MaxTracedTrip + 1},
		{Name: "overloop", Loop: loop, N: MaxTrip},
	}, traced)
	if err != nil {
		t.Fatal(err)
	}
	for i, lr := range b.Loops {
		d, ok := diag.As(lr.Err)
		if !ok || d.Stage != "pipeline" || !strings.Contains(d.Msg, "exceeds the limit 65536 of traced simulations") {
			t.Fatalf("request %d: error %v, want the traced trip-count limit", i, lr.Err)
		}
	}
	if d, _ := diag.As(b.Loops[1].Err); d.Pos != loop.Pos() {
		t.Errorf("parsed request's diagnostic at %v, want the loop's position %v", d.Pos, loop.Pos())
	}
	if len(probes) != 0 {
		t.Errorf("rejected traced requests reached stages %v", probes)
	}

	at := run(t, []string{fig1}, Options{Utilization: true, N: MaxTracedTrip})
	if m := at.Loops[0].Machines[0]; m.SyncUtil == nil || at.Loops[0].N != MaxTracedTrip {
		t.Errorf("traced request at the bound: n=%d, utilization %v", at.Loops[0].N, m.SyncUtil)
	}

	if err := (Options{Utilization: true, N: MaxTracedTrip + 1}).Validate(); err == nil || !strings.Contains(err.Error(), "traced") {
		t.Errorf("traced default N above MaxTracedTrip: Validate = %v", err)
	}
	if err := (Options{N: MaxTracedTrip + 1}).Validate(); err != nil {
		t.Errorf("untraced default N above MaxTracedTrip refused: %v", err)
	}
	untraced := run(t, []string{fig1}, Options{N: MaxTracedTrip + 1})
	if untraced.Loops[0].N != MaxTracedTrip+1 {
		t.Errorf("untraced request above MaxTracedTrip served at n=%d", untraced.Loops[0].N)
	}
}
