package main

import (
	"fmt"
	"strings"

	"doacross"
	"doacross/internal/lang"
)

// execTrips caps the trip count of the executor comparison: the interpreter
// and the detailed simulator walk every iteration, and a few dozen cover
// every dependence distance the corpora use.
const execTrips = 64

// checkSample re-derives one served result through the public facade,
// sharing nothing with the path that served it: the loop is recompiled and
// rescheduled, the served simulated time must equal the recomputed one, and
// executing the schedule on a seeded store must leave the same memory as
// running the loop sequentially.
func checkSample(s sample, seed uint64) error {
	var prog *doacross.Program
	var err error
	if s.loop != nil {
		prog, err = doacross.CompileLoop(s.loop)
	} else {
		prog, err = doacross.Compile(s.src)
	}
	label := fmt.Sprintf("%s on %s, n=%d", firstStmt(prog), s.machine.Name, s.n)
	if err != nil {
		return fmt.Errorf("%s: recompile: %w", label, err)
	}
	sched, err := prog.ScheduleSync(s.machine)
	if err != nil {
		return fmt.Errorf("%s: reschedule: %w", label, err)
	}
	tm, err := doacross.SimulateOptions(sched, doacross.SimOptions{Lo: 1, Hi: s.n})
	if err != nil {
		return fmt.Errorf("%s: simulate: %w", label, err)
	}
	if tm.Total != s.cycles {
		return fmt.Errorf("%s: served sync_time %d, recomputed %d", label, s.cycles, tm.Total)
	}
	lo, hi := 1, min(s.n, execTrips)
	if clo, ok := lang.ConstInt(prog.Loop.Lo); ok {
		if chi, ok := lang.ConstInt(prog.Loop.Hi); ok {
			lo, hi = clo, chi
		}
	}
	seq := prog.SeedStore(hi, seed)
	par := seq.Clone()
	if err := prog.RunSequential(seq); err != nil {
		return fmt.Errorf("%s: sequential run: %w", label, err)
	}
	if _, err := doacross.Execute(sched, par, doacross.SimOptions{Lo: lo, Hi: hi}); err != nil {
		return fmt.Errorf("%s: parallel execution: %w", label, err)
	}
	if d := seq.Diff(par); d != "" {
		return fmt.Errorf("%s: parallel execution diverges from sequential: %s", label, d)
	}
	return nil
}

// firstStmt names a loop in check failures by its first statement.
func firstStmt(p *doacross.Program) string {
	if p == nil {
		return "loop"
	}
	lines := strings.Split(strings.TrimSpace(p.Loop.String()), "\n")
	if len(lines) > 1 {
		return strings.TrimSpace(lines[1])
	}
	return lines[0]
}
