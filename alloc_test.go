// Allocation-regression pins for the zero-alloc hot path. Excluded under
// the race detector: -race instruments every allocation and inflates
// testing.AllocsPerRun, so the pins only hold (and only matter) in normal
// builds — CI runs them in the bench job.

//go:build !race

package doacross_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"doacross"
	"doacross/internal/check"
	"doacross/internal/dfg"
	"doacross/internal/diag"
	"doacross/internal/dlx"
	"doacross/internal/hotbench"
	"doacross/internal/lang"
	"doacross/internal/loopgen"
	"doacross/internal/obs"
	"doacross/internal/perfect"
	"doacross/internal/pipeline"
	"doacross/internal/scheditest"
	"doacross/internal/tac"
)

// TestScratchScheduleAllocs pins steady-state scheduling into a warm
// Scratch at exactly zero allocations per call, for every heuristic
// backend. This is the contract BenchmarkHotScheduleWarm reports on: the
// schedule is borrowed from the scratch, every buffer is grown once and
// recycled, so a scheduling service in steady state puts no pressure on
// the garbage collector.
//
// The alternating case schedules two programs in turn, so every call
// rebuilds the per-graph state a Scratch keeps for the last graph it saw
// (orders, critical paths, base arcs): that must not allocate either once
// the buffers fit the larger program.
func TestScratchScheduleAllocs(t *testing.T) {
	fig1 := doacross.MustCompile(hotbench.Fig1)
	other := doacross.MustCompile(hotbench.Corpus64()[7].Source)
	m := doacross.Machine4Issue(1)
	for _, backend := range []string{"sync", "list", "order", "best"} {
		for _, progs := range [][]*doacross.Program{{fig1}, {fig1, other}} {
			name := backend
			if len(progs) > 1 {
				name += "/alternating"
			}
			t.Run(name, func(t *testing.T) {
				sc := doacross.NewScratch()
				var failed error
				run := func() {
					for _, prog := range progs {
						s, err := prog.ScheduleWith(backend, m, sc)
						if err != nil {
							failed = err
						} else if s.Length() == 0 {
							t.Error("empty schedule")
						}
					}
				}
				// One cold run grows the buffers; the pin is on the warm
				// steady state after it.
				run()
				got := testing.AllocsPerRun(100, run)
				if failed != nil {
					t.Fatal(failed)
				}
				if got != 0 {
					t.Errorf("warm-scratch %s scheduling: %v allocs/op, want 0", name, got)
				}
			})
		}
	}
}

// TestSimNilTracerAllocs pins the untraced recurrence simulator's warm
// steady state at exactly zero allocations per run: the returned Timing is
// three counters, and the iteration ring and the steady-state detector's
// buffers live in the pooled scratch, warmed by one cold call first. With no
// tracer attached the tracer hook must add nothing to the hot path.
func TestSimNilTracerAllocs(t *testing.T) {
	prog := doacross.MustCompile(hotbench.Fig1)
	s, err := prog.ScheduleSync(doacross.Machine4Issue(1))
	if err != nil {
		t.Fatal(err)
	}
	opt := doacross.SimOptions{Lo: 1, Hi: hotbench.N}
	if _, err := doacross.SimulateOptions(s, opt); err != nil {
		t.Fatal(err)
	}
	var failed error
	got := testing.AllocsPerRun(100, func() {
		tm, err := doacross.SimulateOptions(s, opt)
		if err != nil {
			failed = err
		} else if tm.Total == 0 {
			t.Error("zero makespan")
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if got != 0 {
		t.Errorf("warm untraced simulation: %v allocs/op, want 0", got)
	}
}

// cachedHitAllocs measures one cached-hit fig1 request through
// pipeline.Run, the cache warmed by one run first. With observed set, every
// run records its spans into its own 512-span Recorder, as a scheduld flight
// leader does.
func cachedHitAllocs(t *testing.T, observed bool) float64 {
	t.Helper()
	reqs := []pipeline.Request{{Name: "hot", Source: hotbench.Fig1, N: hotbench.N}}
	opt := doacross.BatchOptions{
		Workers:  1,
		Machines: []doacross.Machine{doacross.Machine4Issue(1)},
		Cache:    doacross.NewScheduleCache(),
	}
	var failed error
	run := func() {
		o := opt
		if observed {
			o.Observer = obs.NewRecorder(512)
		}
		batch, err := pipeline.Run(reqs, o)
		if err != nil {
			failed = err
			return
		}
		if err := batch.FirstErr(); err != nil {
			failed = err
		}
	}
	run() // warm the cache
	got := testing.AllocsPerRun(50, run)
	if failed != nil {
		t.Fatal(failed)
	}
	return got
}

// TestPipelineCachedHitAllocs pins the per-request allocation count of a
// cached-hit batch request — the steady-state service shape where every
// stage after compile is served from the schedule cache — at the measured
// 16 allocs/op plus 2 of headroom (Run spawns its worker goroutine per
// call). It catches the hot path regressing back
// to per-request rescheduling (hundreds of allocations) as well as the
// stage plumbing (read-through, span ends) starting to allocate.
func TestPipelineCachedHitAllocs(t *testing.T) {
	const limit = 16 + 2
	if got := cachedHitAllocs(t, false); got > limit {
		t.Errorf("cached-hit pipeline request: %v allocs/op, want <= %d", got, limit)
	}
}

// TestPipelineObservedHitAllocs pins the same request with a span recorder
// attached (serve-warm's flight leader) at the measured 28 allocs/op plus 2.
// Over the unobserved 16 that is the recorder itself and, for each of the
// five spans (batch, request, compile, schedule, simulate), one attribute
// slice and one published copy: building the attributes allocates nothing.
func TestPipelineObservedHitAllocs(t *testing.T) {
	const limit = 28 + 2
	if got := cachedHitAllocs(t, true); got > limit {
		t.Errorf("observed cached-hit pipeline request: %v allocs/op, want <= %d", got, limit)
	}
}

// serviceHitAllocs measures one cached-hit fig1 request through
// Service.Run, the cache warmed by one run first. With observed set, every
// run records its spans into its own 512-span Recorder, as a scheduld flight
// leader does.
func serviceHitAllocs(t *testing.T, observed bool) float64 {
	t.Helper()
	svc, err := pipeline.NewService(pipeline.Options{
		Machines: []doacross.Machine{doacross.Machine4Issue(1)},
		Cache:    doacross.NewScheduleCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	req := pipeline.Request{Name: "hot", Source: hotbench.Fig1, N: hotbench.N}
	var failed error
	run := func() {
		var rec *obs.Recorder
		if observed {
			rec = obs.NewRecorder(512)
		}
		if res := svc.Run(context.Background(), req, rec); res.Err != nil {
			failed = res.Err
		}
	}
	run() // warm the cache
	got := testing.AllocsPerRun(50, run)
	if failed != nil {
		t.Fatal(failed)
	}
	return got
}

// TestServiceHitAllocs pins a cached-hit Service.Run at the measured 1
// alloc/op, the result's machine slice: the compile-memo and time keys are
// hashed from stack buffers. A one-request batch of the same request
// (TestPipelineCachedHitAllocs) adds the option checks, the salts, the
// worker goroutine and the metrics snapshot.
func TestServiceHitAllocs(t *testing.T) {
	const limit = 1
	if got := serviceHitAllocs(t, false); got > limit {
		t.Errorf("cached-hit Service.Run: %v allocs/op, want <= %d", got, limit)
	}
}

// TestServiceObservedHitAllocs pins the same call with a span recorder at
// the measured 13 allocs/op: the recorder (two allocations) and the five
// spans' attribute slices and published copies come on top of the
// unobserved 1.
func TestServiceObservedHitAllocs(t *testing.T) {
	const limit = 13
	if got := serviceHitAllocs(t, true); got > limit {
		t.Errorf("observed cached-hit Service.Run: %v allocs/op, want <= %d", got, limit)
	}
}

// TestServiceKeyAllocs pins Service.Key on a source request at zero
// allocations: the key text is assembled in a stack buffer and hashed in
// one piece. A parsed-loop request renders the loop first, one more.
func TestServiceKeyAllocs(t *testing.T) {
	svc, err := pipeline.NewService(pipeline.Options{Machines: dlx.PaperConfigs()})
	if err != nil {
		t.Fatal(err)
	}
	loop := lang.MustParse(hotbench.Fig1)
	for _, tc := range []struct {
		name  string
		req   pipeline.Request
		limit float64
	}{
		{"source", pipeline.Request{Source: hotbench.Fig1}, 0},
		{"loop", pipeline.Request{Loop: loop}, 1},
	} {
		if got := testing.AllocsPerRun(100, func() { svc.Key(tc.req) }); got > tc.limit {
			t.Errorf("Service.Key, %s request: %v allocs/op, want <= %v", tc.name, got, tc.limit)
		}
	}
}

// TestDiagnosticErrorAllocs pins Diagnostic.Error at one allocation, the
// returned string, with stage, position and statement and with a position
// of the widest integers; a bare message is returned as it is.
func TestDiagnosticErrorAllocs(t *testing.T) {
	for _, tc := range []struct {
		d     *diag.Diagnostic
		limit float64
	}{
		{&diag.Diagnostic{Stage: "lint", Pos: diag.Pos{Line: 12, Col: 3}, Stmt: "S2", Msg: "Wait_Signal(S1, I-1) is redundant"}, 1},
		{&diag.Diagnostic{Stage: "dep", Pos: diag.Pos{Line: math.MaxInt, Col: math.MinInt}, Msg: "huge position"}, 1},
		{&diag.Diagnostic{Msg: "bare"}, 0},
	} {
		if got := testing.AllocsPerRun(100, func() { _ = tc.d.Error() }); got > tc.limit {
			t.Errorf("Diagnostic.Error %q: %v allocs/op, want <= %v", tc.d.Error(), got, tc.limit)
		}
	}
}

// TestItemsAllocs pins syncop.Loop.Items at one allocation, its slice: the
// items point into the loop's own operations.
func TestItemsAllocs(t *testing.T) {
	prog := doacross.MustCompile(hotbench.Fig1)
	sl := prog.Code.Sync
	if got := testing.AllocsPerRun(100, func() { _ = sl.Items() }); got > 1 {
		t.Errorf("Loop.Items: %v allocs/op, want <= 1", got)
	}
}

// TestVerifierAllocs pins a prepared Verifier on a clean Fig. 1 schedule
// at zero allocations per call: the edges were derived once by
// NewVerifier, with every wait at a positive distance the deadlock check is
// one pass over the waits, and the row-position and unit-occupancy tables
// come from a pool. Deriving the edges again on every call, materializing
// the wait-for graph, allocating for the LBD recount or a table per call
// exceeds the pin.
func TestVerifierAllocs(t *testing.T) {
	prog := doacross.MustCompile(hotbench.Fig1)
	s, err := prog.ScheduleSync(doacross.Machine4Issue(1))
	if err != nil {
		t.Fatal(err)
	}
	v := check.NewVerifier(prog.Code)
	var failed error
	got := testing.AllocsPerRun(100, func() {
		if err := check.Err(v.Verify(s)); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if got != 0 {
		t.Errorf("prepared Verifier.Verify: %v allocs/op, want 0", got)
	}
}

// TestValidateAllocs pins Schedule.Validate on a valid Fig. 1 schedule at
// zero allocations per call: its seen and unit-occupancy tables come from a
// pool, and only a rejection allocates (its error).
func TestValidateAllocs(t *testing.T) {
	prog := doacross.MustCompile(hotbench.Fig1)
	s, err := prog.ScheduleSync(doacross.Machine4Issue(1))
	if err != nil {
		t.Fatal(err)
	}
	var failed error
	got := testing.AllocsPerRun(100, func() {
		if err := s.Validate(); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if got != 0 {
		t.Errorf("Schedule.Validate: %v allocs/op, want 0", got)
	}
}

// TestSizeSweepAllocs pins how the allocations of BenchmarkHotSizeSweep's
// rows grow with loop size: one op runs the six size-sweep loops of one
// size as fresh default-options requests, and each larger row's count is
// pinned as a multiple of the 10-statement row's, at the measured ratio
// plus 5%. Pinning ratios rather than counts lets a toolchain that
// allocates a few percent more or less throughout (map layouts, runtime
// internals) pass. A lookup, lint search or arc test that goes superlinear
// again multiplies the ratio: the linter alone used to allocate about 20
// million times per 80-statement request, against some 13 thousand for the
// whole request now. Requests take their scheduler scratches from a pool,
// so the rows count no scratch built from empty, and the small base row
// gained the most from that: the ratios rose when every count fell. The
// 80-statement row takes seconds and runs without -short.
func TestSizeSweepAllocs(t *testing.T) {
	ratios := map[int]float64{20: 2.32, 40: 6.59, 80: 22.88}
	allocs := func(stmts int) float64 {
		srcs := scheditest.SweepSources(stmts)
		var failed error
		got := testing.AllocsPerRun(1, func() {
			if err := hotbench.SweepOnce(srcs); err != nil {
				failed = err
			}
		})
		if failed != nil {
			t.Fatal(failed)
		}
		return got
	}
	base := allocs(scheditest.SweepStmts[0])
	for _, stmts := range scheditest.SweepStmts[1:] {
		if testing.Short() && stmts > 40 {
			continue
		}
		got := allocs(stmts) / base
		t.Logf("%d statements: %.3f times the %d-statement row's %.0f allocs/op", stmts, got, scheditest.SweepStmts[0], base)
		if limit := ratios[stmts] * 1.05; got > limit {
			t.Errorf("size sweep, %d statements: %.3f times the %d-statement row's allocs/op, want <= %.2f", stmts, got, scheditest.SweepStmts[0], limit)
		}
	}
}

// TestMaxLiveAllocs pins MaxLive at zero allocations per call: the def,
// last-use and sweep tables share one slice, taken from a pool.
func TestMaxLiveAllocs(t *testing.T) {
	prog := doacross.MustCompile(hotbench.Fig1)
	s, err := prog.ScheduleSync(doacross.Machine4Issue(1))
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	got := testing.AllocsPerRun(100, func() { live = s.MaxLive() })
	if live < 1 {
		t.Fatalf("MaxLive = %d", live)
	}
	if got != 0 {
		t.Errorf("MaxLive: %v allocs/op, want 0", got)
	}
}

// TestLoopStringAllocs pins Loop.String at a constant number of allocations
// per call, whatever the loop's size: the printer appends into a pooled
// buffer and the returned string is the one allocation. The pipeline
// renders every parsed request loop to key its compile memo, so a printer
// that allocates per node (as the fmt-based one did) shows here on the
// 80-statement sweep loops first.
func TestLoopStringAllocs(t *testing.T) {
	suites, err := perfect.Suites()
	if err != nil {
		t.Fatal(err)
	}
	var loops []*lang.Loop
	for _, su := range suites {
		for _, l := range su.Loops {
			loops = append(loops, l.AST)
		}
	}
	for _, src := range scheditest.SweepSources(80) {
		l, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		loops = append(loops, l)
	}
	const limit = 2
	worst := 0.0
	for i, l := range loops {
		text := ""
		got := testing.AllocsPerRun(20, func() { text = l.String() })
		if text == "" {
			t.Fatalf("loop %d printed nothing", i)
		}
		if got > limit {
			t.Errorf("loop %d (%d statements, %d bytes): Loop.String %v allocs/op, want <= %d", i, len(l.Body), len(text), got, limit)
		}
		worst = max(worst, got)
	}
	t.Logf("%d loops: at most %v allocs per Loop.String", len(loops), worst)
}

// TestTokenizeAllocs pins lang.Tokenize at one allocation per call, the
// token slice, over the Perfect suites, the kernel corpus and loopgen loops
// of every shape with 1-12 statements: its presize must cover their token
// density, so no parse grows the slice and copies its tokens.
func TestTokenizeAllocs(t *testing.T) {
	var srcs []string
	for _, su := range perfect.MustSuites() {
		for _, l := range su.Loops {
			srcs = append(srcs, l.Source)
		}
	}
	kernels, err := filepath.Glob(filepath.Join("testdata", "kernels", "*.loop"))
	if err != nil || len(kernels) == 0 {
		t.Fatalf("kernel corpus: %v (%d files)", err, len(kernels))
	}
	for _, path := range kernels {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(b))
	}
	for _, sh := range loopgen.Shapes() {
		for stmts := 1; stmts <= 12; stmts++ {
			for seed := uint64(0); seed < 10; seed++ {
				srcs = append(srcs, loopgen.Generate(seed, loopgen.Options{Shape: sh, Stmts: stmts}))
			}
		}
	}
	for i, src := range srcs {
		var toks []lang.Token
		var failed error
		got := testing.AllocsPerRun(5, func() { toks, failed = lang.Tokenize(src) })
		if failed != nil {
			t.Fatalf("source %d: %v", i, failed)
		}
		if got != 1 {
			t.Errorf("source %d (%d bytes, %d tokens): Tokenize %v allocs/op, want 1", i, len(src), len(toks), got)
		}
	}
}

// heapGrowth returns how far the live heap grows across fn. Two
// collections on each side drain the sync.Pool victim caches, so pooled
// scratch counts on neither side; what fn leaves reachable from an object
// made before it (a service's cache) is the growth.
func heapGrowth(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
}

// servedFootprint serves count requests, the k-th made by req(k) inside the
// measurement, round-robin through services Services at the default machine
// and trip count, each with an unbounded cache, and returns the live heap
// they leave behind: their compile, schedule and time entries. A request
// repeated on several Services is cached once by each.
func servedFootprint(t *testing.T, services, count int, req func(k int) pipeline.Request) float64 {
	t.Helper()
	svcs := make([]*pipeline.Service, services)
	for i := range svcs {
		svc, err := pipeline.NewService(pipeline.Options{Cache: pipeline.NewCache()})
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = svc
	}
	var failed error
	grown := heapGrowth(func() {
		for k := 0; k < count; k++ {
			if res := svcs[k%services].Run(context.Background(), req(k), nil); res.Err != nil && failed == nil {
				failed = res.Err
			}
		}
	})
	runtime.KeepAlive(svcs)
	if failed != nil {
		t.Fatal(failed)
	}
	return grown
}

// TestCachedLoopFootprint pins the heap a cached loop keeps resident: 2,000
// distinct loopgen loops, shapes cycling and 1-6 statements as serve-cold
// draws them, are served through one Service with an unbounded cache, and
// the live heap's growth per loop is pinned at the measured 20.8 KB plus
// 10% (47.8 KB before the compile passes published exactly sized storage,
// 31.6 KB before instructions, graph adjacency and synchronized
// dependences took their compact forms). Storage sized for larger loops,
// or kept for nobody to read, shows here.
//
// The loops of each multi-loop kernel file, parsed with their file and
// served one at a time, must weigh in sum within 1% of the same loops each
// parsed from the file's text with its sibling loops commented out, so that
// both sides keep a source string of nearly the same length: a cached loop
// does not keep its file siblings' AST nodes alive. A sibling's nodes are a
// few percent of a small served loop, so each loop is cached by 20
// Services and each side is its least of three readings, which keeps the
// heap readings' noise below the bound.
func TestCachedLoopFootprint(t *testing.T) {
	const loops, limit = 2000, 20800 * 1.10
	shapes := loopgen.Shapes()
	var srcs []string
	seen := map[string]bool{}
	for k := uint64(0); len(srcs) < loops; k++ {
		src := loopgen.Generate(k, loopgen.Options{Shape: shapes[k%uint64(len(shapes))], Stmts: 1 + int(k/uint64(len(shapes)))%6})
		if !seen[src] {
			seen[src] = true
			srcs = append(srcs, src)
		}
	}
	// Each request's source is a fresh copy, as a decoded request body is,
	// so the text a cached loop keeps counts toward its weight.
	per := servedFootprint(t, 1, loops, func(k int) pipeline.Request {
		return pipeline.Request{Source: strings.Clone(srcs[k])}
	}) / loops
	t.Logf("%d distinct loopgen loops: %.0f B of live heap per cached loop", loops, per)
	if per > limit {
		t.Errorf("a cached loop keeps %.0f B of live heap, want <= %.0f", per, limit)
	}

	kernels, err := filepath.Glob(filepath.Join("testdata", "kernels", "*.loop"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range kernels {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		file := lang.MustParseFile(string(b))
		if len(file.Loops) < 2 {
			continue
		}
		const copies = 20
		// The least of three readings: anything else the process allocates
		// during a reading only adds to it.
		least := func(req func(int) pipeline.Request) float64 {
			w := math.Inf(1)
			for range 3 {
				w = min(w, servedFootprint(t, copies, copies, req))
			}
			return w
		}
		var withFile, alone float64
		for k := range file.Loops {
			own := commentOtherLoops(string(b), k)
			withFile += least(func(int) pipeline.Request {
				return pipeline.Request{Loop: lang.MustParseFile(strings.Clone(string(b))).Loops[k]}
			})
			alone += least(func(int) pipeline.Request {
				return pipeline.Request{Loop: lang.MustParse(strings.Clone(own))}
			})
		}
		t.Logf("%s: %d loops, %d copies each, weigh %.0f B parsed with their file, %.0f B parsed one by one", filepath.Base(path), len(file.Loops), copies, withFile, alone)
		if withFile > alone*1.01 {
			t.Errorf("%s: its %d loops weigh %.0f B parsed with their file, over 1%% more than the %.0f B parsed one by one", filepath.Base(path), len(file.Loops), withFile, alone)
		}
	}
}

// TestCompactFormsFootprint pins the sizes of the records a compiled loop
// keeps one of per instruction and per graph arc: an instruction of 32-bit
// and byte fields (160 bytes when its fields were int-sized and its names
// strings), and an arc of two int32 endpoints and a byte kind.
func TestCompactFormsFootprint(t *testing.T) {
	if got := unsafe.Sizeof(tac.Instr{}); got > 64 {
		t.Errorf("tac.Instr is %d bytes, want <= 64", got)
	}
	if got := unsafe.Sizeof(dfg.Arc{}); got > 12 {
		t.Errorf("dfg.Arc is %d bytes, want <= 12", got)
	}
}

// commentOtherLoops turns every line of src outside its k-th loop (0-based,
// loops ending at ENDDO lines) into a comment.
func commentOtherLoops(src string, k int) string {
	lines := strings.Split(src, "\n")
	loop := 0
	for i, line := range lines {
		if loop != k {
			lines[i] = "!" + line
		}
		if strings.EqualFold(strings.TrimSpace(line), "ENDDO") {
			loop++
		}
	}
	return strings.Join(lines, "\n")
}
