// Command schedlint statically checks DOACROSS loops for synchronization
// bugs without running them: explicit Wait_Signal statements with no
// matching Send (static deadlock), dead or duplicate sends, mismatched or
// non-positive synchronization distances, self-synchronization, and
// redundant waits subsumed by transitive synchronization — plus everything
// the compiler-inserted synchronization of the DOACROSS form trips over.
// Findings are printed with their source line:col; the exit status is
// non-zero when any finding is an error (or a loop fails to compile).
//
// Usage:
//
//	schedlint [-q] [-j 8] [-stats] [-trace] [-serve :8080] [file]
//
// With no file, or "-", the loops are read from standard input. Input may
// contain several loops back to back; all of them are compiled and linted
// concurrently by the batch pipeline, and a loop that does not parse fails
// alone. Example finding:
//
//	loop1: error: lint: line 2 col 3: statement S1: static deadlock:
//	Wait_Signal(S2, I-1) has no matching Send_Signal(S2)
package main

import (
	"flag"
	"fmt"
	"os"

	"doacross"
	"doacross/internal/cliutil"
)

func main() {
	quiet := flag.Bool("q", false, "suppress warnings; only errors are printed (the exit status is unaffected)")
	cf := cliutil.Register(flag.CommandLine)
	flag.Parse()

	src, err := cliutil.ReadInput(flag.Arg(0))
	if err != nil {
		fail(err)
	}

	metrics := doacross.NewBatchMetrics()
	ob, err := cf.Observability(metrics, os.Stderr)
	if err != nil {
		fail(err)
	}
	defer ob.Close()
	bopts := doacross.BatchOptions{
		Workers:  cf.Jobs,
		Metrics:  metrics,
		Compile:  cf.BackendOptions(doacross.CompileOptions{Dump: cf.DumpPasses()}),
		Deadline: cf.Timeout,
		Observer: ob.Recorder,
	}
	batch, err := cliutil.ScheduleSource(src, bopts)
	if err != nil {
		fail(err)
	}

	code := 0
	findings := 0
	for i := range batch.Loops {
		lr := &batch.Loops[i]
		if lr.Err != nil {
			fmt.Fprintf(os.Stderr, "schedlint: %s: %v\n", lr.Name, lr.Err)
			code = 1
			continue
		}
		for _, d := range lr.Lint {
			if d.Severity == doacross.SeverityError {
				code = 1
			} else if *quiet {
				continue
			}
			findings++
			fmt.Printf("%s: %s: %s\n", lr.Name, d.Severity, d.Error())
		}
	}
	if findings == 0 && code == 0 {
		fmt.Printf("schedlint: %d loops clean\n", len(batch.Loops))
	}
	if cf.Trace {
		fmt.Printf("\nPer-pass compile timings:\n%s", cliutil.PassTimings(batch.Stats))
	}
	if cf.Stats {
		fmt.Printf("\nPipeline stats:\n%s", batch.Stats)
	}
	if err := ob.Finish(); err != nil {
		fmt.Fprintln(os.Stderr, "schedlint:", err)
	}
	os.Exit(code)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "schedlint:", err)
	os.Exit(2)
}
