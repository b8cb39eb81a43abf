// Command doasim runs the detailed multiprocessor simulator on a source
// file of one or more DOACROSS loops: each loop is scheduled, all its
// iterations execute on the simulated shared-memory machine with real data
// (loops run one after another, sharing the store), the result is verified
// against sequential execution, and per-loop plus total timings are
// reported.
//
// Usage:
//
//	doasim [-issue 4] [-fu 1] [-n 100] [-procs 0] [-sched sync] [-seed 1] [-window 0] [file]
package main

import (
	"flag"
	"fmt"
	"os"

	"doacross"
	"doacross/internal/cliutil"
)

func main() {
	issue := flag.Int("issue", 4, "issue width")
	fu := flag.Int("fu", 1, "function units per class")
	n := flag.Int("n", 100, "loop trip count")
	procs := flag.Int("procs", 0, "processor count (0 = one per iteration)")
	sched := flag.String("sched", "sync", "scheduler: sync, list or best")
	seed := flag.Uint64("seed", 1, "data seed")
	window := flag.Int("window", 0, "signal hardware window (0 = unbounded)")
	flag.Parse()

	src, err := cliutil.ReadInput(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	progs, err := doacross.CompileFile(src)
	if err != nil {
		fail(err)
	}
	m := doacross.NewMachine(*issue, *fu)

	// One shared store: loops feed each other, as in a real program.
	source, err := doacross.ParseSource(src)
	if err != nil {
		fail(err)
	}
	seq := source.SeedStore(*n, 24, *seed)
	par := seq.Clone()
	if err := source.Run(seq); err != nil {
		fail(err)
	}

	totalCycles, totalStalls, totalLen := 0, 0, 0
	for i, prog := range progs {
		var s *doacross.Schedule
		var err error
		switch *sched {
		case "sync":
			s, err = prog.ScheduleSync(m)
		case "list":
			s, err = prog.ScheduleList(m)
		case "best":
			s, err = prog.ScheduleBest(m)
		default:
			fail(fmt.Errorf("unknown scheduler %q", *sched))
		}
		if err != nil {
			fail(err)
		}
		timing, err := doacross.Execute(s, par, doacross.SimOptions{Lo: 1, Hi: *n, Procs: *procs, Window: *window})
		if err != nil {
			fail(err)
		}
		fmt.Printf("loop %d: %3d rows/iter, parallel time %6d cycles, %6d stall cycles\n",
			i+1, s.Length(), timing.Total, timing.StallCycles)
		totalCycles += timing.Total
		totalStalls += timing.StallCycles
		totalLen += s.CompletionLength()
	}
	procsUsed := *procs
	if procsUsed == 0 {
		procsUsed = *n
	}
	fmt.Printf("\nscheduler:        %s on %s\n", *sched, m.Name)
	fmt.Printf("processors:       %d\n", procsUsed)
	fmt.Printf("iterations:       %d per loop, %d loops\n", *n, len(progs))
	fmt.Printf("parallel time:    %d cycles\n", totalCycles)
	fmt.Printf("stall cycles:     %d\n", totalStalls)
	seqTime := totalLen * *n
	fmt.Printf("speedup vs 1 CPU: %.2fx (sequential ~%d cycles)\n",
		float64(seqTime)/float64(totalCycles), seqTime)
	if d := seq.Diff(par); d != "" {
		fail(fmt.Errorf("parallel result differs from sequential execution: %s", d))
	}
	fmt.Println("memory check:     parallel result matches sequential execution")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "doasim:", err)
	os.Exit(1)
}
