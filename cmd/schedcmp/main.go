// Command schedcmp compiles one or more DOACROSS loops and compares
// traditional list scheduling against the paper's synchronization-aware
// scheduling on a chosen machine, printing the schedules, the
// synchronization pair spans, and simulated parallel execution times.
//
// Input may contain several loops back to back; all of them are compiled,
// scheduled and simulated concurrently by the batch pipeline (-j workers),
// with repeated loop shapes served from the content-addressed schedule
// cache.
//
// Usage:
//
//	schedcmp [-issue 4] [-fu 1] [-uniform] [-n 100] [-baseline cp] [-backend exact] [-exact-budget 200000] [-why] [-j 8] [-stats] [-trace] [-dump pass,...] [-serve :8080] [-trace-out t.json] [-cpuprofile cpu.pb.gz] [-memprofile mem.pb.gz] [file]
//
// -why re-simulates both schedules under the cycle-accurate machine tracer
// and prints where the cycles went: a stall-cause attribution diff (sync
// waits split LBD/LFD, window waits, drain, empty-issue-slot causes) plus
// the hottest synchronization pairs of the served schedule. With -serve or
// -trace-out, the traced loops' machine timelines (per-processor issue and
// function-unit tracks) are merged into the Chrome trace next to the
// pipeline spans.
//
// With no file, or "-", the loops are read from standard input. Example
// loop:
//
//	DO I = 1, N
//	  S1: B[I] = A[I-2] + E[I+1]
//	  S2: G[I-3] = A[I-1] * E[I+2]
//	  S3: A[I] = B[I] + C[I+3]
//	ENDDO
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"doacross"
	"doacross/internal/cliutil"
)

func main() {
	issue := flag.Int("issue", 4, "issue width")
	fu := flag.Int("fu", 1, "function units per class")
	uniform := flag.Bool("uniform", false, "use single-cycle latencies everywhere (Fig. 4 setting)")
	n := flag.Int("n", 100, "loop trip count (one processor per iteration)")
	baseline := flag.String("baseline", "cp", "baseline priority: cp (critical path) or order (program order)")
	gantt := flag.Bool("gantt", false, "print per-cycle function-unit occupancy charts")
	dot := flag.Bool("dot", false, "print the data-flow graphs in Graphviz DOT format and exit")
	window := flag.Int("window", 0, "signal hardware window (0 = unbounded)")
	why := flag.Bool("why", false, "print per-loop stall-cause attribution diffs between the baseline and served schedules (traced simulation)")
	lint := flag.Bool("lint", false, "print synchronization-linter findings for each loop (see schedlint)")
	cf := cliutil.Register(flag.CommandLine)
	flag.Parse()

	src, err := cliutil.ReadInput(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	var m doacross.Machine
	if *uniform {
		m = doacross.UniformMachine(*issue, *fu)
	} else {
		m = doacross.NewMachine(*issue, *fu)
	}
	var pri doacross.ListPriority
	switch *baseline {
	case "cp":
		pri = doacross.BaselineCriticalPath
	case "order":
		pri = doacross.BaselineProgramOrder
	default:
		fail(fmt.Errorf("unknown baseline %q", *baseline))
	}

	metrics := doacross.NewBatchMetrics()
	ob, err := cf.Observability(metrics, os.Stderr)
	if err != nil {
		fail(err)
	}
	defer ob.Close()
	stopProf, err := cf.StartProfiling()
	if err != nil {
		fail(err)
	}
	bopts := doacross.BatchOptions{
		Workers:  cf.Jobs,
		Machines: []doacross.Machine{m},
		N:        *n,
		Window:   *window,
		Baseline: pri,
		Cache:    doacross.NewScheduleCache(),
		Metrics:  metrics,
		Compile:  cf.BackendOptions(doacross.CompileOptions{Dump: cf.DumpPasses()}),
		Deadline: cf.Timeout,
		Observer: ob.Recorder,
	}
	batch, err := cliutil.ScheduleSource(src, bopts)
	if err != nil {
		fail(err)
	}

	// A failing loop prints its diagnostic and is skipped; the rest of the
	// batch still renders, and the final exit status reports the failure.
	code := 0
	timelines := 0
	for i := range batch.Loops {
		lr := &batch.Loops[i]
		if lr.Err != nil {
			fmt.Fprintf(os.Stderr, "schedcmp: %s: %v\n", lr.Name, lr.Err)
			code = 1
			continue
		}
		if len(batch.Loops) > 1 {
			fmt.Printf("======== loop %d of %d ========\n", i+1, len(batch.Loops))
		}
		fmt.Println("== Synchronized DOACROSS form ==")
		fmt.Print(lr.DoacrossSource())
		fmt.Println("\n== Three-address code ==")
		fmt.Print(lr.Listing())
		fmt.Println("\n== Data-flow graph ==")
		fmt.Println(lr.GraphInfo())
		if lr.Trace != nil {
			for _, tm := range lr.Trace.Timings {
				if a, ok := lr.Trace.Artifact(tm.Pass); ok {
					fmt.Printf("== dump: %s ==\n%s\n", tm.Pass, strings.TrimRight(a, "\n"))
				}
			}
			for _, d := range lr.Trace.Diags.Warnings() {
				fmt.Fprintln(os.Stderr, "schedcmp: warning:", d)
			}
		}
		if *dot {
			fmt.Print(lr.Graph.DOT())
			continue
		}
		mr := lr.Machines[0]
		if mr.Degraded {
			fmt.Printf("\n(degraded to program-order fallback: %s)\n", mr.DegradedReason)
		}
		if mr.Backend != "" && mr.Backend != "sync" {
			fmt.Printf("\nbackend %s: predicted T=%d", mr.Backend, mr.PredictedT)
			if mr.Optimal {
				fmt.Printf(" — proven optimal (%d search nodes)", mr.SearchNodes)
			} else if mr.LowerBound > 0 {
				fmt.Printf(" — proven lower bound %d (%d search nodes)", mr.LowerBound, mr.SearchNodes)
			}
			fmt.Println()
			if mr.BackendNote != "" {
				fmt.Printf("  note: %s\n", mr.BackendNote)
			}
		}
		for _, s := range []*doacross.Schedule{mr.List, mr.Sync} {
			if err := s.Validate(); err != nil {
				fail(fmt.Errorf("%s schedule invalid: %w", s.Method, err))
			}
			fmt.Printf("\n== %s schedule (%s, %d rows) ==\n", s.Method, m.Name, s.Length())
			fmt.Print(s.String())
			if *gantt {
				fmt.Println()
				fmt.Print(s.Gantt())
			}
			printSpans(s)
			fmt.Printf("register pressure (max live temps): %d\n", s.MaxLive())
		}
		fmt.Printf("\nlist: %d cycles (%d stall), sync: %d cycles (%d stall) at n=%d\n",
			mr.ListTime, mr.ListStalls, mr.SyncTime, mr.SyncStalls, lr.N)
		fmt.Printf("signals sent: %d (sync), arcs %d LBD / %d LFD\n",
			mr.SyncSignals, mr.SyncLBD, mr.SyncLFD)
		fmt.Printf("improvement: %.2f%%\n", mr.Improvement)
		if *why {
			str, err := printWhy(os.Stdout, mr.List, mr.Sync, lr.N, *window)
			if err != nil {
				fail(err)
			}
			if timelines < maxTimelineLoops {
				str.Loop = lr.Name
				ob.AddMachineEvents(str.Events(uint64(2 + i)))
				timelines++
			}
		}
		if *lint && len(lr.Lint) > 0 {
			fmt.Printf("\n== lint findings ==\n")
			for _, d := range lr.Lint {
				fmt.Printf("  %s: %s\n", d.Severity, d.Error())
			}
		}
	}
	if cf.Trace {
		fmt.Printf("\nPer-pass compile timings:\n%s", cliutil.PassTimings(batch.Stats))
	}
	if cf.Stats {
		fmt.Printf("\nPipeline stats:\n%s", batch.Stats)
	}
	// Stop the profiles before ob.Finish: with -serve, Finish blocks until
	// Ctrl-C, and os.Exit below skips deferred functions.
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "schedcmp:", err)
	}
	if err := ob.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "schedcmp:", err)
	}
	os.Exit(code)
}

// maxTimelineLoops caps how many traced loops merge their machine timeline
// into the Chrome trace: each timeline carries per-cycle spans for every
// processor, so an unbounded batch would swamp the trace viewer.
const maxTimelineLoops = 8

// printWhy re-simulates both schedules under the cycle-accurate machine
// tracer (which verifies that the attribution covers 100% of every
// processor's cycles) and prints the stall-cause diff plus the served
// schedule's hottest synchronization pairs. The served schedule's tracer is
// returned so its machine timeline can be merged into the run's trace.
func printWhy(w io.Writer, list, served *doacross.Schedule, n, window int) (*doacross.SimTracer, error) {
	opt := doacross.SimOptions{Lo: 1, Hi: n, Window: window}
	_, ltr, err := doacross.SimulateTraced(list, opt)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", list.Method, err)
	}
	_, str, err := doacross.SimulateTraced(served, opt)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", served.Method, err)
	}
	lu, su := ltr.Utilization(), str.Utilization()
	fmt.Fprintf(w, "\n== why: stall-cause attribution at n=%d ==\n", n)
	fmt.Fprintf(w, "%-26s %12s %12s %12s\n", "", list.Method, served.Method, "delta")
	row := func(name string, a, b int) {
		fmt.Fprintf(w, "%-26s %12d %12d %+12d\n", name, a, b, b-a)
	}
	row("cycles (makespan)", lu.Cycles, su.Cycles)
	row("issued proc-cycles", lu.IssuedCycles, su.IssuedCycles)
	row("sync-wait proc-cycles", lu.SyncWaitCycles, su.SyncWaitCycles)
	row("  on LBD arcs", lu.LBDWaitCycles, su.LBDWaitCycles)
	row("  on LFD arcs", lu.LFDWaitCycles, su.LFDWaitCycles)
	row("window-wait proc-cycles", lu.WindowWaitCycles, su.WindowWaitCycles)
	row("drain proc-cycles", lu.DrainCycles, su.DrainCycles)
	row("empty slots: RAW", lu.EmptyRAW, su.EmptyRAW)
	row("empty slots: FU busy", lu.EmptyFUBusy, su.EmptyFUBusy)
	row("empty slots: issue width", lu.EmptyWidth, su.EmptyWidth)
	row("empty slots: drain", lu.EmptyDrain, su.EmptyDrain)
	row("signals sent", lu.SignalsSent, su.SignalsSent)
	fmt.Fprintf(w, "%-26s %11.1f%% %11.1f%% %+11.1f%%\n", "issue-slot efficiency",
		100*lu.SlotEfficiency, 100*su.SlotEfficiency, 100*(su.SlotEfficiency-lu.SlotEfficiency))
	if stalls := str.SyncStalls(); len(stalls) > 0 {
		fmt.Fprintf(w, "hottest sync pairs (%s):\n", served.Method)
		for i, st := range stalls {
			if i == 5 {
				fmt.Fprintf(w, "  ... and %d more\n", len(stalls)-i)
				break
			}
			kind := "LFD"
			if st.LBD {
				kind = "LBD"
			}
			fmt.Fprintf(w, "  %-8s d=%-3d %s %8d stall cycles over %d waits\n",
				st.Signal, st.Dist, kind, st.Cycles, st.Count)
		}
	}
	return str, nil
}

func printSpans(s *doacross.Schedule) {
	for _, p := range s.PairSpans() {
		kind := "LFD"
		if p.LBD() {
			kind = "LBD"
		}
		fmt.Printf("  pair %s d=%d: wait@%d send@%d  %s (span %d)\n",
			p.Signal, p.Distance, p.WaitCycle, p.SendCycle, kind, p.Span())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "schedcmp:", err)
	os.Exit(1)
}
