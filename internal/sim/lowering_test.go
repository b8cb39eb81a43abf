package sim

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"doacross/internal/core"
	"doacross/internal/dlx"
)

// withWaitDistance returns a copy of s whose instruction v (a wait) has
// distance d; the shared program is untouched.
func withWaitDistance(s *core.Schedule, v int, d int32) *core.Schedule {
	cp := *s
	prog := *s.Prog
	prog.Instrs = slices.Clone(prog.Instrs)
	prog.Instrs[v].SigDist = d
	cp.Prog = &prog
	return &cp
}

// diffTraces describes the first difference between two traces of the same
// run — processor assignment, start, completion, a row's issue cycle or a
// stall span — or returns "" when they are identical.
func diffTraces(a, b *Tracer) string {
	if len(a.Iters) != len(b.Iters) {
		return fmt.Sprintf("trace covers %d vs %d iterations", len(a.Iters), len(b.Iters))
	}
	for k := range a.Iters {
		x, y := &a.Iters[k], &b.Iters[k]
		if x.Proc != y.Proc || x.Start != y.Start || x.Done != y.Done {
			return fmt.Sprintf("iteration %d: proc=%d start=%d done=%d vs proc=%d start=%d done=%d",
				k, x.Proc, x.Start, x.Done, y.Proc, y.Start, y.Done)
		}
		if !slices.Equal(x.Rows, y.Rows) {
			return fmt.Sprintf("iteration %d rows issued at %v vs %v", k, x.Rows, y.Rows)
		}
		if !slices.Equal(x.Stalls, y.Stalls) {
			return fmt.Sprintf("iteration %d stalls %+v vs %+v", k, x.Stalls, y.Stalls)
		}
	}
	return ""
}

// TestTraceEnginesRefuseWaitDistanceBelowOne: a wait at distance below 1
// would wait on its own iteration or a later one. Both engines share one
// lowering, which refuses it with an error naming the signal and the
// distance, the same on every call, traced or not, and leaves the pooled
// scratch fit for the next schedule.
func TestTraceEnginesRefuseWaitDistanceBelowOne(t *testing.T) {
	b := build(t, fig1Source)
	s := mustSync(t, b, dlx.Standard(4, 1))
	wait := -1
	for _, p := range s.PairSpans() {
		if p.LBD() {
			wait = p.WaitNode
			break
		}
	}
	if wait < 0 {
		t.Fatal("fig1's sync schedule has no LBD pair")
	}
	sig := s.Prog.Name(s.Prog.Instrs[wait].Signal)
	const n = 20
	opt := Options{Lo: 1, Hi: n}
	good := MustTime(s, opt)
	for _, d := range []int32{0, -1} {
		bad := withWaitDistance(s, wait, d)
		want := fmt.Sprintf("sim: wait on signal %s at distance %d (must be at least 1)", sig, d)
		refused := func(engine string, err error) {
			t.Helper()
			if err == nil || err.Error() != want {
				t.Errorf("distance %d, %s: error %v, want %q", d, engine, err, want)
			}
		}
		for call := 1; call <= 2; call++ {
			_, err := Time(bad, opt)
			refused(fmt.Sprintf("Time call %d", call), err)
		}
		_, err := Time(bad, Options{Lo: 1, Hi: n, Tracer: &Tracer{}})
		refused("traced Time", err)
		_, err = Run(bad, b.loop.SeedStore(n, 8, 1), opt)
		refused("Run", err)
		_, err = Run(bad, b.loop.SeedStore(n, 8, 1), Options{Lo: 1, Hi: n, Tracer: &Tracer{}})
		refused("traced Run", err)
	}
	if got := MustTime(s, opt); got != good {
		t.Errorf("after the refused schedules Time gives %+v, before %+v", got, good)
	}
}

// TestTraceRunProcsBeyondTrip: processors past the trip count never run an
// iteration, so Run allocates the same for Procs = n and Procs = 1000n and
// gives the same timing and trace, while the tracer keeps reporting the
// requested processor count.
func TestTraceRunProcsBeyondTrip(t *testing.T) {
	b := build(t, fig1Source)
	s := mustSync(t, b, dlx.Standard(4, 1))
	const n = 12
	st := b.loop.SeedStore(n, 8, 5)
	allocs := func(procs int) float64 {
		var failed error
		got := testing.AllocsPerRun(100, func() {
			if _, err := Run(s, st, Options{Lo: 1, Hi: n, Procs: procs}); err != nil {
				failed = err
			}
		})
		if failed != nil {
			t.Fatal(failed)
		}
		return got
	}
	// The race detector drops pooled scratches at random and instruments
	// allocations, so the counts only hold in normal builds.
	if !raceEnabled {
		if few, many := allocs(n), allocs(1000*n); few != many {
			t.Errorf("Run allocates %v times for Procs = %d, %v for Procs = %d", few, n, many, 1000*n)
		}
	}
	traced := func(procs int) (Timing, *Tracer) {
		tr := &Tracer{}
		tm, err := Run(s, b.loop.SeedStore(n, 8, 5), Options{Lo: 1, Hi: n, Procs: procs, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		return tm, tr
	}
	few, ftr := traced(n)
	many, mtr := traced(1000 * n)
	if few != many {
		t.Errorf("Procs = %d: %+v, Procs = %d: %+v", n, few, 1000*n, many)
	}
	if d := diffTraces(ftr, mtr); d != "" {
		t.Errorf("Procs = %d vs %d: %s", n, 1000*n, d)
	}
	if mtr.Procs != 1000*n || mtr.Utilization().Procs != 1000*n {
		t.Errorf("tracer reports %d processors, utilization %d, want the requested %d", mtr.Procs, mtr.Utilization().Procs, 1000*n)
	}
}

// TestTraceEnginesConcurrent: Run takes its lowering from the pool that Time
// calls share, so goroutines running both engines at once, on different
// schedules, processor counts and windows, traced and untraced, must each
// get exactly their serial result.
func TestTraceEnginesConcurrent(t *testing.T) {
	type job struct {
		b         built
		s         *core.Schedule
		opt       Options
		storeSeed uint64
		// The serial results.
		time, run Timing
		tTr, rTr  *Tracer
	}
	const n = 24
	var jobs []*job
	for _, src := range []string{fig1Source, chainSource, "DO I = 1, N\nS = S + A[I]\nENDDO"} {
		b := build(t, src)
		for _, cfg := range []dlx.Config{dlx.Standard(2, 1), dlx.Standard(4, 1)} {
			for _, s := range []*core.Schedule{mustList(t, b, cfg), mustSync(t, b, cfg)} {
				for _, procs := range []int{0, 5} {
					for _, w := range []int{0, 3, 5} {
						jobs = append(jobs, &job{b: b, s: s, opt: Options{Lo: 1, Hi: n, Procs: procs, Window: w}, storeSeed: uint64(len(jobs))})
					}
				}
			}
		}
	}
	// run runs job j on both engines, each with its own tracer if traced.
	run := func(j *job, traced bool) (tm, rm Timing, ttr, rtr *Tracer, err error) {
		topt, ropt := j.opt, j.opt
		if traced {
			ttr, rtr = &Tracer{}, &Tracer{}
			topt.Tracer, ropt.Tracer = ttr, rtr
		}
		if tm, err = Time(j.s, topt); err != nil {
			return
		}
		rm, err = Run(j.s, j.b.loop.SeedStore(n, 8, j.storeSeed), ropt)
		return
	}
	for _, j := range jobs {
		tm, rm, ttr, rtr, err := run(j, true)
		if err != nil {
			t.Fatalf("%s on %s %+v: %v", j.s.Method, j.s.Cfg.Name, j.opt, err)
		}
		if tm != rm {
			t.Fatalf("%s on %s %+v: recurrence %+v, detailed %+v", j.s.Method, j.s.Cfg.Name, j.opt, tm, rm)
		}
		j.time, j.run, j.tTr, j.rTr = tm, rm, ttr, rtr
	}
	workers, rounds := 4, 3
	if testing.Short() {
		rounds = 1
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for k := 0; k < rounds*len(jobs); k++ {
				j := jobs[(k*7+w*5)%len(jobs)]
				traced := (k+w)%2 == 0
				tm, rm, ttr, rtr, err := run(j, traced)
				if err != nil {
					t.Errorf("worker %d: %s on %s %+v: %v", w, j.s.Method, j.s.Cfg.Name, j.opt, err)
					return
				}
				if tm != j.time || rm != j.run {
					t.Errorf("worker %d: %s on %s %+v: recurrence %+v, detailed %+v, serially %+v and %+v",
						w, j.s.Method, j.s.Cfg.Name, j.opt, tm, rm, j.time, j.run)
				}
				if !traced {
					continue
				}
				if d := diffTraces(ttr, j.tTr); d != "" {
					t.Errorf("worker %d: %s on %s %+v: recurrence trace: %s", w, j.s.Method, j.s.Cfg.Name, j.opt, d)
				}
				if d := diffTraces(rtr, j.rTr); d != "" {
					t.Errorf("worker %d: %s on %s %+v: detailed trace: %s", w, j.s.Method, j.s.Cfg.Name, j.opt, d)
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
}
