package doacross

import (
	"fmt"
	"testing"

	"doacross/internal/sim"
	"doacross/internal/tac"
)

// TestTraceAttribution is the stall-attribution property test: over ~200
// generated loops, traced on both simulator engines, every non-issue cycle
// must carry exactly one attributed cause — per processor, issued +
// sync-wait + window-wait + drain cycles equal the machine's total cycles —
// and the attributed wait-stall and signal totals must agree bit-exactly
// with the engines' own Timing counters. The two engines must also produce
// identical traces (same processor assignment, issue cycles and stall
// spans), the trace-level form of their documented timing bit-identity.
func TestTraceAttribution(t *testing.T) {
	count := 200
	if testing.Short() {
		count = 50
	}
	loops := differentialCorpus(t, count)
	machines := []Machine{NewMachine(4, 1), Machine2Issue(2), UniformMachine(2, 1)}
	const n = 12
	procsChoices := []int{0, 3, 1}
	for i, gl := range loops {
		gl := gl
		name := fmt.Sprintf("%03d-%s", i, gl.Template)
		t.Run(name, func(t *testing.T) {
			p, err := CompileLoop(gl.AST)
			if err != nil {
				t.Fatalf("compile:\n%s\n%v", gl.Source, err)
			}
			m := machines[i%len(machines)]
			s, err := p.ScheduleSync(m)
			if err != nil {
				t.Fatalf("schedule on %s: %v", m.Name, err)
			}
			opt := SimOptions{Lo: 1, Hi: n, Procs: procsChoices[i%len(procsChoices)]}

			// Recurrence engine, traced; SimulateTraced runs Check itself.
			tm, ttr, err := SimulateTraced(s, opt)
			if err != nil {
				t.Fatalf("traced recurrence sim:\n%s\n%v", gl.Source, err)
			}

			// Detailed engine, traced, with real data.
			rtr := &SimTracer{}
			ropt := opt
			ropt.Tracer = rtr
			rm, err := Execute(s, p.SeedStore(n, uint64(i)*2654435761+1), ropt)
			if err != nil {
				t.Fatalf("traced detailed sim:\n%s\n%v", gl.Source, err)
			}
			if err := rtr.Check(rm); err != nil {
				t.Errorf("detailed-engine attribution:\n%s\n%v", gl.Source, err)
			}
			if rm.Total != tm.Total || rm.StallCycles != tm.StallCycles || rm.SignalsSent != tm.SignalsSent {
				t.Fatalf("engines disagree: detailed %+v vs recurrence %+v", rm, tm)
			}

			sameTraces(t, ttr, rtr)

			// The derived utilization must balance to the cycle.
			u := ttr.Utilization()
			if got := u.IssuedCycles + u.SyncWaitCycles + u.WindowWaitCycles + u.DrainCycles; got != u.Procs*u.Cycles {
				t.Errorf("utilization books: %d attributed cycles over %d procs x %d cycles", got, u.Procs, u.Cycles)
			}
			if u.SyncWaitCycles+u.WindowWaitCycles != tm.StallCycles {
				t.Errorf("utilization wait cycles %d+%d != engine stall cycles %d", u.SyncWaitCycles, u.WindowWaitCycles, tm.StallCycles)
			}
			if u.LBDWaitCycles+u.LFDWaitCycles != u.SyncWaitCycles {
				t.Errorf("LBD %d + LFD %d wait cycles != sync wait cycles %d", u.LBDWaitCycles, u.LFDWaitCycles, u.SyncWaitCycles)
			}
			if u.SignalsSent != tm.SignalsSent {
				t.Errorf("utilization signals %d != engine %d", u.SignalsSent, tm.SignalsSent)
			}
		})
	}
}

// sameTraces fails unless the recurrence engine's trace rec and the detailed
// engine's trace det are identical: the same processor assignment, start
// and completion, issue cycle of every row, and stall spans. It returns the
// number of window-wait spans, so callers can show the window path ran.
func sameTraces(t *testing.T, rec, det *SimTracer) (windowSpans int) {
	t.Helper()
	if len(rec.Iters) != len(det.Iters) {
		t.Fatalf("trace covers %d vs %d iterations", len(rec.Iters), len(det.Iters))
	}
	for k := range rec.Iters {
		a, b := &rec.Iters[k], &det.Iters[k]
		if a.Proc != b.Proc || a.Start != b.Start || a.Done != b.Done {
			t.Fatalf("iteration %d: recurrence proc=%d start=%d done=%d, detailed proc=%d start=%d done=%d",
				k, a.Proc, a.Start, a.Done, b.Proc, b.Start, b.Done)
		}
		for r := range a.Rows {
			if a.Rows[r] != b.Rows[r] {
				t.Fatalf("iteration %d row %d issued at %d vs %d", k, r, a.Rows[r], b.Rows[r])
			}
		}
		if len(a.Stalls) != len(b.Stalls) {
			t.Fatalf("iteration %d: %d vs %d stall spans:\n%v\n%v", k, len(a.Stalls), len(b.Stalls), a.Stalls, b.Stalls)
		}
		for j := range a.Stalls {
			if a.Stalls[j] != b.Stalls[j] {
				t.Fatalf("iteration %d stall %d: %+v vs %+v", k, j, a.Stalls[j], b.Stalls[j])
			}
			if a.Stalls[j].Cause == sim.CauseWindowWait {
				windowSpans++
			}
		}
	}
	return windowSpans
}

// TestTraceAttributionWindow exercises the bounded-signal-window stall path
// (CauseWindowWait) explicitly: under the two tightest valid windows, with
// one processor per iteration and with two and four processors, both
// engines must attribute every cycle and produce identical traces, span by
// span.
func TestTraceAttributionWindow(t *testing.T) {
	count := 200
	if testing.Short() {
		count = 50
	}
	loops := differentialCorpus(t, count)
	machines := []Machine{NewMachine(2, 1), NewMachine(4, 1)}
	const n = 10
	windowSpans := 0
	for i, gl := range loops {
		gl := gl
		t.Run(fmt.Sprintf("%03d-%s", i, gl.Template), func(t *testing.T) {
			p, err := CompileLoop(gl.AST)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			for _, m := range machines {
				s, err := p.ScheduleSync(m)
				if err != nil {
					t.Fatalf("schedule on %s: %v", m.Name, err)
				}
				// The tightest always-valid window is one past the largest
				// dependence distance (equality on an LFD pair is rejected).
				maxDist := 1
				for _, in := range s.Prog.Instrs {
					if in.Op == tac.Wait && int(in.SigDist) > maxDist {
						maxDist = int(in.SigDist)
					}
				}
				for _, procs := range []int{0, 2, 4} {
					for _, w := range []int{maxDist + 1, maxDist + 2} {
						opt := SimOptions{Lo: 1, Hi: n, Procs: procs, Window: w}
						tm, ttr, err := SimulateTraced(s, opt)
						if err != nil {
							t.Fatalf("%s procs %d: traced recurrence sim (window %d): %v", m.Name, procs, w, err)
						}
						rtr := &SimTracer{}
						ropt := opt
						ropt.Tracer = rtr
						rm, err := Execute(s, p.SeedStore(n, uint64(i)+99), ropt)
						if err != nil {
							t.Fatalf("%s procs %d: traced detailed sim (window %d): %v", m.Name, procs, w, err)
						}
						if err := rtr.Check(rm); err != nil {
							t.Errorf("%s procs %d window %d: detailed-engine attribution: %v", m.Name, procs, w, err)
						}
						if rm != tm {
							t.Fatalf("%s procs %d window %d: engines disagree: %+v vs %+v", m.Name, procs, w, rm, tm)
						}
						windowSpans += sameTraces(t, ttr, rtr)
					}
				}
			}
		})
	}
	if windowSpans == 0 {
		t.Error("no window-wait span in the corpus: the window path went unexercised")
	}
	t.Logf("%d window-wait spans identical on both engines", windowSpans)
}
