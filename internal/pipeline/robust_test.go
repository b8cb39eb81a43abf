package pipeline

// Tests of the hardened execution layer: cancellation and deadlines, panic
// isolation, graceful degradation onto the verified program-order fallback,
// and the seeded chaos test driving all of it at once through
// internal/faults. Run under -race in CI (the chaos job).

import (
	"context"
	"errors"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"doacross/internal/diag"
	"doacross/internal/faults"
	"doacross/internal/passes"
)

func reqsFor(srcs []string) []Request {
	reqs := make([]Request, len(srcs))
	for i, s := range srcs {
		reqs[i] = Request{Source: s}
	}
	return reqs
}

// sleepHook sleeps at the named stage, to make requests slow enough for the
// context machinery to cut them off.
func sleepHook(stage string, d time.Duration) func(string, string) error {
	return func(s, name string) error {
		if s == stage {
			time.Sleep(d)
		}
		return nil
	}
}

// probeLog records which requests reached a fault probe, that is, ran a
// compilation pass or a stage.
type probeLog struct {
	mu  sync.Mutex
	ran map[string]bool
}

// hook wraps next so that every probe is recorded before it runs.
func (p *probeLog) hook(next func(string, string) error) func(string, string) error {
	p.ran = map[string]bool{}
	return func(stage, name string) error {
		p.mu.Lock()
		p.ran[name] = true
		p.mu.Unlock()
		return next(stage, name)
	}
}

// checkCutOff holds a batch cut off by an expired context to the contract:
// every result in request order, completed requests intact, the others
// failed with want (one timeout each), and every request that ran no stage
// among the failed ones. It returns how many completed, how many were cut
// off and how many of those ran no stage.
func checkCutOff(t *testing.T, b *Batch, ran map[string]bool, want error) (done, cut, unrun int) {
	t.Helper()
	for i, lr := range b.Loops {
		if lr.Index != i {
			t.Fatalf("result %d has Index %d: order not preserved", i, lr.Index)
		}
		if !ran[lr.Name] {
			unrun++
			if lr.Err == nil {
				t.Errorf("request %s completed without running a stage", lr.Name)
			}
		}
		if lr.Err == nil {
			done++
			if lr.Machines[0].Sync == nil {
				t.Errorf("completed request %s missing schedules", lr.Name)
			}
			continue
		}
		cut++
		if !errors.Is(lr.Err, want) {
			t.Errorf("request %s failed with %v, want %v", lr.Name, lr.Err, want)
		}
	}
	if b.Stats.Timeouts != int64(cut) {
		t.Errorf("timeouts counter = %d, want %d", b.Stats.Timeouts, cut)
	}
	return done, cut, unrun
}

// TestCancelMidBatch: cancelling the batch context returns promptly with
// every result slot filled in request order — completed requests intact,
// cut-off requests failed with the context error, and those claimed after
// the cancellation failed without running a stage.
func TestCancelMidBatch(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			reqs := reqsFor(corpus(40))
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(60 * time.Millisecond)
				cancel()
			}()
			var probes probeLog
			start := time.Now()
			b, err := RunContext(ctx, reqs, Options{
				Workers:   workers,
				FaultHook: probes.hook(sleepHook(StageSchedule, 20*time.Millisecond)),
			})
			elapsed := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if elapsed >= time.Second {
				t.Errorf("cancelled batch took %v, want < 1s", elapsed)
			}
			if len(b.Loops) != len(reqs) {
				t.Fatalf("got %d results for %d requests", len(b.Loops), len(reqs))
			}
			done, cut, unrun := checkCutOff(t, b, probes.ran, context.Canceled)
			if done == 0 || cut == 0 || unrun == 0 {
				t.Errorf("cancellation not mid-batch: %d done, %d cut off, %d of them claimed after it", done, cut, unrun)
			}
		})
	}
}

// TestBatchDeadline: Options.Deadline cuts the batch off the same way an
// external cancellation does. (At eight workers this batch beats the
// deadline; TestExpiredBatch covers eight.)
func TestBatchDeadline(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			var probes probeLog
			b, err := Run(reqsFor(corpus(30)), Options{
				Workers:   workers,
				Deadline:  70 * time.Millisecond,
				FaultHook: probes.hook(sleepHook(StageSchedule, 15*time.Millisecond)),
			})
			if err != nil {
				t.Fatal(err)
			}
			done, cut, unrun := checkCutOff(t, b, probes.ran, context.DeadlineExceeded)
			if done == 0 || cut == 0 || unrun == 0 {
				t.Errorf("deadline not mid-batch: %d done, %d cut off, %d of them claimed after it", done, cut, unrun)
			}
		})
	}
}

// TestExpiredBatch: a batch whose context has already expired fails every
// request with the context's error, in request order, without running a
// stage, and counts one timeout each, at any worker count.
func TestExpiredBatch(t *testing.T) {
	reqs := reqsFor(corpus(12))
	reqs[3].N = 37
	for _, want := range []error{context.Canceled, context.DeadlineExceeded} {
		// Cancelling a context that is already past its deadline leaves its
		// error DeadlineExceeded.
		var ctx context.Context
		var cancel context.CancelFunc
		if want == context.Canceled {
			ctx, cancel = context.WithCancel(context.Background())
		} else {
			ctx, cancel = context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		}
		cancel()
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%v/%d", want, workers), func(t *testing.T) {
				var probes probeLog
				b, err := RunContext(ctx, reqs, Options{Workers: workers, FaultHook: probes.hook(
					func(string, string) error { return nil })})
				if err != nil {
					t.Fatal(err)
				}
				if done, cut, unrun := checkCutOff(t, b, probes.ran, want); done != 0 || cut != len(reqs) || unrun != len(reqs) {
					t.Errorf("%d done, %d cut off, %d without a stage; want all %d cut off without one", done, cut, unrun, len(reqs))
				}
				for i, lr := range b.Loops {
					if lr.Name != reqs[i].name(i) || lr.N != reqs[i].N || lr.Machines != nil {
						t.Errorf("result %d = (%q n=%d, %d machines), want (%q n=%d) and no machines",
							i, lr.Name, lr.N, len(lr.Machines), reqs[i].name(i), reqs[i].N)
					}
				}
			})
		}
	}
}

// TestRequestTimeout: Options.RequestTimeout bounds each request on its own
// clock; every slow request fails individually.
func TestRequestTimeout(t *testing.T) {
	b, err := Run(reqsFor(corpus(6)), Options{
		Workers:        3,
		RequestTimeout: 20 * time.Millisecond,
		FaultHook:      sleepHook(StageSchedule, 60*time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range b.Loops {
		if lr.Err == nil {
			t.Errorf("request %s beat a 20ms timeout through a 60ms stage", lr.Name)
		} else if !errors.Is(lr.Err, context.DeadlineExceeded) {
			t.Errorf("request %s failed with %v, want context.DeadlineExceeded", lr.Name, lr.Err)
		}
	}
	if b.Stats.Timeouts != int64(len(b.Loops)) {
		t.Errorf("timeouts counter = %d, want %d", b.Stats.Timeouts, len(b.Loops))
	}
}

var stackDigestRe = regexp.MustCompile(`stack [0-9a-f]{12}`)

// TestPanicIsolationCompilePass: a panic inside one request's compilation
// fails that request with a structured diagnostic (pass name, request name,
// stack digest) and leaves the rest of the batch untouched.
func TestPanicIsolationCompilePass(t *testing.T) {
	hook := func(stage, name string) error {
		if name == "loop1" && stage == passes.PassAnalyze {
			panic("poisoned analysis")
		}
		return nil
	}
	b, err := Run(reqsFor(corpus(3)), Options{FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if b.Loops[0].Err != nil || b.Loops[2].Err != nil {
		t.Errorf("healthy requests failed: %v / %v", b.Loops[0].Err, b.Loops[2].Err)
	}
	lr := b.Loops[1]
	if lr.Err == nil {
		t.Fatal("panicking request succeeded")
	}
	d, ok := diag.As(lr.Err)
	if !ok {
		t.Fatalf("panic not recovered into a diagnostic: %v", lr.Err)
	}
	if d.Stage != passes.PassAnalyze {
		t.Errorf("diagnostic stage = %q, want %q", d.Stage, passes.PassAnalyze)
	}
	for _, want := range []string{"panic: poisoned analysis", "request loop1"} {
		if !strings.Contains(d.Msg, want) {
			t.Errorf("diagnostic %q missing %q", d.Msg, want)
		}
	}
	if !stackDigestRe.MatchString(d.Msg) {
		t.Errorf("diagnostic %q carries no stack digest", d.Msg)
	}
	if b.Stats.Panics != 1 {
		t.Errorf("panics counter = %d, want 1", b.Stats.Panics)
	}
}

// TestPanicIsolationScheduleStage: a panic in the scheduling stage degrades
// the request onto the verified fallback instead of failing it.
func TestPanicIsolationScheduleStage(t *testing.T) {
	hook := func(stage, name string) error {
		if name == "loop0" && stage == StageSchedule {
			panic("scheduler bug")
		}
		return nil
	}
	b, err := Run(reqsFor(corpus(2)), Options{FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	lr := b.Loops[0]
	if lr.Err != nil {
		t.Fatalf("panicking schedule stage failed the request instead of degrading: %v", lr.Err)
	}
	mr := lr.Machines[0]
	if !mr.Degraded || !lr.Degraded() {
		t.Fatal("request not marked Degraded")
	}
	if !strings.Contains(mr.DegradedReason, "panic: scheduler bug") || !stackDigestRe.MatchString(mr.DegradedReason) {
		t.Errorf("degraded reason = %q", mr.DegradedReason)
	}
	if err := mr.Sync.Validate(); err != nil {
		t.Errorf("fallback schedule invalid: %v", err)
	}
	if mr.SyncTime <= 0 {
		t.Errorf("fallback not simulated: SyncTime = %d", mr.SyncTime)
	}
	if b.Loops[1].Degraded() || b.Loops[1].Err != nil {
		t.Error("healthy request affected by neighbour's panic")
	}
	if b.Stats.Panics != 1 || b.Stats.Fallbacks != 1 {
		t.Errorf("panics/fallbacks = %d/%d, want 1/1", b.Stats.Panics, b.Stats.Fallbacks)
	}
}

// TestScheduleFallback: scheduler errors degrade every affected request onto
// the program-order baseline, verified and simulated.
func TestScheduleFallback(t *testing.T) {
	hook := func(stage, name string) error {
		if stage == StageSchedule {
			return errors.New("synthetic scheduler failure")
		}
		return nil
	}
	b, err := Run(reqsFor(corpus(6)), Options{Best: true, FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range b.Loops {
		if lr.Err != nil {
			t.Fatalf("%s: %v", lr.Name, lr.Err)
		}
		mr := lr.Machines[0]
		if !mr.Degraded || !strings.Contains(mr.DegradedReason, "synthetic scheduler failure") {
			t.Fatalf("%s not degraded with reason: %+q", lr.Name, mr.DegradedReason)
		}
		// The whole answer is the one verified fallback schedule.
		if mr.List != mr.Sync || mr.Best != mr.Sync {
			t.Errorf("%s: degraded result not served by the single fallback", lr.Name)
		}
		if err := mr.Sync.Validate(); err != nil {
			t.Errorf("%s: fallback invalid: %v", lr.Name, err)
		}
		if mr.ListTime != mr.SyncTime || mr.SyncTime <= 0 {
			t.Errorf("%s: fallback times = %d/%d", lr.Name, mr.ListTime, mr.SyncTime)
		}
	}
	if b.Stats.Fallbacks != int64(len(b.Loops)) {
		t.Errorf("fallbacks = %d, want %d", b.Stats.Fallbacks, len(b.Loops))
	}
}

// TestSimulateFallback: simulator failures likewise degrade onto the timed
// fallback.
func TestSimulateFallback(t *testing.T) {
	hook := func(stage, name string) error {
		if stage == StageSimulate {
			return errors.New("synthetic simulator failure")
		}
		return nil
	}
	b, err := Run(reqsFor(corpus(4)), Options{FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range b.Loops {
		if lr.Err != nil {
			t.Fatalf("%s: %v", lr.Name, lr.Err)
		}
		mr := lr.Machines[0]
		if !mr.Degraded {
			t.Fatalf("%s not degraded", lr.Name)
		}
		if err := mr.Sync.Validate(); err != nil {
			t.Errorf("%s: fallback invalid: %v", lr.Name, err)
		}
		if mr.ListTime != mr.SyncTime || mr.SyncTime <= 0 {
			t.Errorf("%s: fallback times = %d/%d", lr.Name, mr.ListTime, mr.SyncTime)
		}
	}
	if b.Stats.Fallbacks != int64(len(b.Loops)) {
		t.Errorf("fallbacks = %d, want %d", b.Stats.Fallbacks, len(b.Loops))
	}
}

// TestDegradedResultsNotCached: a degraded answer must never be published to
// the shared cache — the next batch recomputes and gets the real schedules.
func TestDegradedResultsNotCached(t *testing.T) {
	cache := NewCache()
	hook := func(stage, name string) error {
		if stage == StageSchedule {
			return errors.New("transient scheduler failure")
		}
		return nil
	}
	b1, err := Run([]Request{{Source: fig1}}, Options{Cache: cache, FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if !b1.Loops[0].Degraded() {
		t.Fatal("first batch not degraded")
	}
	b2, err := Run([]Request{{Source: fig1}}, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	lr := b2.Loops[0]
	if lr.Err != nil {
		t.Fatal(lr.Err)
	}
	if lr.Degraded() {
		t.Error("degraded entry leaked through the cache")
	}
	if n := b2.Stats.Stage(StageSchedule).Count; n != 1 {
		t.Errorf("second batch ran schedule %d times, want 1 (recompute after degradation)", n)
	}
}

// chaosSeed reads the chaos seed from the environment (the CI matrix sets
// it), defaulting to the paper's year.
func chaosSeed(t *testing.T) uint64 {
	if s := os.Getenv("DOACROSS_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("bad DOACROSS_CHAOS_SEED %q: %v", s, err)
		}
		return v
	}
	return 1997
}

// chaosOutcome is the precomputed expectation for one request under a fault
// plan: because injector decisions are pure functions of (seed, stage, name),
// the test can walk the pipeline's probe sites in order and predict exactly
// what each request does and what the counters end at.
type chaosOutcome struct {
	err       bool
	degraded  bool
	panics    int64
	fallbacks int64
	verified  int64
	rejected  int64
	counts    faults.Counts
}

// expectOutcome mirrors runOne's probe order for an uncached request:
// compile probe, then each compilation pass, then schedule, then the
// independent verifier, then simulate.
func expectOutcome(in *faults.Injector, passNames []string, name string) chaosOutcome {
	var o chaosOutcome
	record := func(k faults.Kind) {
		switch k {
		case faults.Error:
			o.counts.Errors++
		case faults.Panic:
			o.counts.Panics++
		case faults.Delay:
			o.counts.Delays++
		case faults.Corrupt:
			o.counts.Corrupts++
		case faults.Budget:
			o.counts.Budgets++
		}
	}
	if k, ok := in.Decide(faults.StageCompile, name); ok {
		record(k)
		switch k {
		case faults.Panic:
			o.panics++
			fallthrough
		case faults.Error:
			o.err = true
			return o
		}
	}
	for _, p := range passNames {
		if k, ok := in.Decide(p, name); ok {
			record(k)
			switch k {
			case faults.Panic:
				o.panics++
				fallthrough
			case faults.Error:
				o.err = true
				return o
			}
		}
	}
	if k, ok := in.Decide(StageSchedule, name); ok {
		record(k)
		switch k {
		case faults.Panic:
			o.panics++
			fallthrough
		case faults.Error:
			o.degraded = true
			o.fallbacks++
		}
	}
	if k, ok := in.Decide(StageVerify, name); ok && (k == faults.Panic || k == faults.Error) {
		record(k)
		if k == faults.Panic {
			o.panics++
		}
		o.rejected++
		if o.degraded {
			// Even the fallback was rejected: the request errs.
			o.err = true
			return o
		}
		o.degraded = true
		o.fallbacks++
	} else {
		if ok {
			record(k) // a Delay fault fired and the stage went on to pass
		}
		o.verified++
	}
	if k, ok := in.Decide(StageSimulate, name); ok {
		record(k)
		switch k {
		case faults.Panic, faults.Error, faults.Budget:
			if k == faults.Panic {
				o.panics++
			}
			if o.degraded {
				// Even the fallback's simulation was poisoned: the request
				// errs.
				o.err = true
			} else {
				o.degraded = true
				o.fallbacks++
			}
		}
	}
	return o
}

func addCounts(a, b faults.Counts) faults.Counts {
	return faults.Counts{
		Errors:   a.Errors + b.Errors,
		Panics:   a.Panics + b.Panics,
		Delays:   a.Delays + b.Delays,
		Corrupts: a.Corrupts + b.Corrupts,
		Budgets:  a.Budgets + b.Budgets,
	}
}

// chaosPlan is the randomized-fault mix driven through the chaos tests.
func chaosPlan(seed uint64) faults.Plan {
	return faults.Plan{
		Seed:     seed,
		Error:    0.08,
		Panic:    0.05,
		Delay:    0.02,
		Budget:   0.06,
		Corrupt:  0.05, // fires only at cache probes; inert without a cache
		DelayFor: time.Millisecond,
	}
}

// TestChaos drives a large randomized batch through every failure path at
// once and asserts the hardened layer's full contract: request ordering,
// per-request isolation, fallback correctness, and — because the injector is
// deterministic — metrics counters matching the injection plan exactly.
func TestChaos(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 80
	}
	seed := chaosSeed(t)
	srcs := corpus(n)
	passNames := passes.New(passes.Options{}).Names()

	runChaos := func() (*Batch, faults.Counts) {
		in := faults.MustNew(chaosPlan(seed))
		b, err := Run(reqsFor(srcs), Options{
			Workers:   8,
			FaultHook: in.Hook(),
			Metrics:   NewMetrics(), // private registry: exact counter math
		})
		if err != nil {
			t.Fatal(err)
		}
		return b, in.Counts()
	}
	b, fired := runChaos()

	// Precompute the expected outcome of every request from the plan alone.
	oracle := faults.MustNew(chaosPlan(seed))
	var wantCounts faults.Counts
	var wantPanics, wantFallbacks, wantVerified, wantRejected int64
	erred, degraded := 0, 0
	for i := range srcs {
		o := expectOutcome(oracle, passNames, Request{}.name(i))
		wantCounts = addCounts(wantCounts, o.counts)
		wantPanics += o.panics
		wantFallbacks += o.fallbacks
		wantVerified += o.verified
		wantRejected += o.rejected
		lr := b.Loops[i]
		if lr.Index != i {
			t.Fatalf("result %d has Index %d", i, lr.Index)
		}
		if (lr.Err != nil) != o.err {
			t.Errorf("%s: err = %v, plan predicts err=%v", lr.Name, lr.Err, o.err)
		}
		if lr.Err == nil && lr.Degraded() != o.degraded {
			t.Errorf("%s: degraded = %v, plan predicts %v", lr.Name, lr.Degraded(), o.degraded)
		}
		if o.err {
			erred++
		} else if o.degraded {
			degraded++
		}
		if lr.Err != nil {
			continue
		}
		// Isolation and fallback correctness: whatever happened to the
		// neighbours, a returned result carries verified schedules.
		for _, mr := range lr.Machines {
			if err := mr.Sync.Validate(); err != nil {
				t.Errorf("%s: invalid sync schedule under chaos: %v", lr.Name, err)
			}
			if err := mr.List.Validate(); err != nil {
				t.Errorf("%s: invalid list schedule under chaos: %v", lr.Name, err)
			}
			if mr.Degraded && mr.DegradedReason == "" {
				t.Errorf("%s: degraded without a reason", lr.Name)
			}
			if !mr.Degraded && mr.DegradedReason != "" {
				t.Errorf("%s: reason %q without Degraded", lr.Name, mr.DegradedReason)
			}
		}
	}
	if erred == 0 || degraded == 0 || wantCounts.Total() == 0 {
		t.Fatalf("chaos plan too tame for seed %d: %d erred, %d degraded, %d faults", seed, erred, degraded, wantCounts.Total())
	}
	if fired != wantCounts {
		t.Errorf("fired faults = %s, plan predicts %s", fired, wantCounts)
	}
	if b.Stats.Panics != wantPanics {
		t.Errorf("panics counter = %d, plan predicts %d", b.Stats.Panics, wantPanics)
	}
	if b.Stats.Fallbacks != wantFallbacks {
		t.Errorf("fallbacks counter = %d, plan predicts %d", b.Stats.Fallbacks, wantFallbacks)
	}
	if b.Stats.Verified != wantVerified {
		t.Errorf("verified counter = %d, plan predicts %d", b.Stats.Verified, wantVerified)
	}
	if b.Stats.Rejected != wantRejected {
		t.Errorf("rejected counter = %d, plan predicts %d", b.Stats.Rejected, wantRejected)
	}
	if wantRejected == 0 {
		t.Errorf("chaos plan fired no verify-stage faults for seed %d: rejection path untested", seed)
	}
	if b.Stats.Timeouts != 0 {
		t.Errorf("timeouts counter = %d without any deadline", b.Stats.Timeouts)
	}

	// Same seed, second run: identical fault pattern and counters,
	// independent of goroutine interleaving.
	b2, fired2 := runChaos()
	if fired2 != fired {
		t.Errorf("replay fired %s, first run fired %s", fired2, fired)
	}
	if b2.Stats.Panics != b.Stats.Panics || b2.Stats.Fallbacks != b.Stats.Fallbacks {
		t.Errorf("replay counters %d/%d diverge from %d/%d",
			b2.Stats.Panics, b2.Stats.Fallbacks, b.Stats.Panics, b.Stats.Fallbacks)
	}
	for i := range b.Loops {
		if (b.Loops[i].Err != nil) != (b2.Loops[i].Err != nil) || b.Loops[i].Degraded() != b2.Loops[i].Degraded() {
			t.Errorf("%s: replay outcome diverges", b.Loops[i].Name)
		}
	}
}

// TestChaosWithCache re-runs the chaos batch with a shared cache attached.
// Cache hits are interleaving-dependent (first-writer-wins), so exact
// counter math is off the table; the structural invariants are not.
func TestChaosWithCache(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 60
	}
	in := faults.MustNew(chaosPlan(chaosSeed(t)))
	cache := NewCache()
	b, err := Run(reqsFor(corpus(n)), Options{
		Workers:   8,
		Cache:     cache,
		FaultHook: in.Hook(),
		Metrics:   NewMetrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fault-free, cache-free reference run: each chaos result must carry its
	// own request's compilation. A cache-faulted recompute that published (or
	// adopted) another request's entry would validate fine but describe the
	// wrong loop — compare DFG fingerprints per index to catch it.
	ref, err := Run(reqsFor(corpus(n)), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, lr := range b.Loops {
		if lr.Index != i {
			t.Fatalf("result %d has Index %d", i, lr.Index)
		}
		if lr.Err != nil {
			continue
		}
		if want := ref.Loops[i].Graph.Fingerprint(); lr.Graph.Fingerprint() != want {
			t.Errorf("%s: result carries another request's compilation (graph fingerprint mismatch)", lr.Name)
		}
		for _, mr := range lr.Machines {
			if err := mr.Sync.Validate(); err != nil {
				t.Errorf("%s: invalid sync schedule under cached chaos: %v", lr.Name, err)
			}
			if mr.Degraded && mr.DegradedReason == "" {
				t.Errorf("%s: degraded without a reason", lr.Name)
			}
		}
	}
	// A clean batch over the same cache afterwards: corrupted probes dropped
	// entries rather than poisoning them, so everything must still validate
	// and nothing comes back degraded.
	clean, err := Run(reqsFor(corpus(n)), Options{Workers: 8, Cache: cache, Metrics: NewMetrics()})
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range clean.Loops {
		if lr.Err != nil {
			t.Fatalf("%s failed on a clean run over the chaos cache: %v", lr.Name, lr.Err)
		}
		if lr.Degraded() {
			t.Errorf("%s degraded on a clean run: degraded entries leaked into the cache", lr.Name)
		}
		for _, mr := range lr.Machines {
			if err := mr.Sync.Validate(); err != nil {
				t.Errorf("%s: cache served an invalid schedule: %v", lr.Name, err)
			}
		}
	}
}
