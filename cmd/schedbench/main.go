package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("schedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: every workload, each in its own child process)")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the recorded spans to this file as a Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || (*traceOut != "" && *name == "") {
		fmt.Fprintln(stderr, "schedbench: usage: schedbench [-workload W [-trace-out FILE]] [-seed N] [-seconds S] [-trace 0|1]")
		return 2
	}
	if *name == "" {
		return runAll(args, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "schedbench: unknown workload %q\n", *name)
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "schedbench:", err)
		return 1
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	cfg := config{
		seed: *seed, seconds: *seconds, traced: *trace == 1, traceOut: *traceOut,
		root: root, procs: nproc, hot: hotSetSize, samples: checkSamples, replay: replayCases,
	}
	fmt.Fprintf(stdout, "schedbench: workload=%s seed=%d seconds=%g trace=%d go=%s nproc=%d gomaxprocs=%d\n",
		w.name, cfg.seed, cfg.seconds, *trace, runtime.Version(), nproc, runtime.GOMAXPROCS(0))
	rep, err := measure(w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "schedbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "schedbench:", err)
		return 1
	}
	if !rep.Correct {
		for _, e := range rep.problems {
			fmt.Fprintln(stderr, "schedbench: check failed:", e)
		}
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, so that peak
// RSS, GC state and caches never carry over from one workload to the next.
// Each child prints its own report and exits non-zero when it is not
// correct.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "schedbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "schedbench: workload %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// print writes the human-readable metric table, then the JSON result as the
// last line.
func (r *report) print(w io.Writer) error {
	for _, m := range r.table {
		fmt.Fprintf(w, "  %-28s %16s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 8, 64), m.unit)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
