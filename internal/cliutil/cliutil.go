// Package cliutil holds the flag wiring and observability plumbing shared
// by cmd/benchtab and cmd/schedcmp, so the two binaries register the same
// pipeline flags (-j, -stats, -trace, -dump, -timeout, -serve, -trace-out,
// -cpuprofile, -memprofile) with the same semantics and stop drifting apart.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"doacross/internal/obs"
	"doacross/internal/passes"
	"doacross/internal/pipeline"
)

// Flags are the pipeline flags common to the batch-scheduling commands.
type Flags struct {
	// Jobs is -j: the pipeline worker count (0 = GOMAXPROCS).
	Jobs int
	// Stats is -stats: print the pipeline cache/latency report at exit.
	Stats bool
	// Trace is -trace: print per-pass compile timings at exit.
	Trace bool
	// Dump is -dump: comma-separated pass names whose artifacts to print.
	Dump string
	// Timeout is -timeout: the per-batch deadline (0 = none).
	Timeout time.Duration
	// Serve is -serve: the address of the HTTP admin surface ("" = off).
	Serve string
	// TraceOut is -trace-out: a file to write the Chrome trace to ("" =
	// off).
	TraceOut string
	// Backend is -backend: the scheduling backend serving the
	// synchronization-aware slot ("" = sync, the paper's heuristic).
	Backend string
	// ExactBudget is -exact-budget: the exact backend's branch-and-bound
	// node budget (0 = default, negative = unlimited).
	ExactBudget int64
	// CPUProfile is -cpuprofile: a file to write a pprof CPU profile of
	// the run to ("" = off).
	CPUProfile string
	// MemProfile is -memprofile: a file to write a pprof heap profile to
	// after the run ("" = off).
	MemProfile string
}

// Register installs the shared flags on fs (flag.CommandLine in the cmds).
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Jobs, "j", 0, "pipeline workers (0 = GOMAXPROCS)")
	fs.BoolVar(&f.Stats, "stats", false, "print pipeline cache and stage-latency stats")
	fs.BoolVar(&f.Trace, "trace", false, "print per-pass compile timings from the pipeline metrics registry")
	fs.StringVar(&f.Dump, "dump", "", "comma-separated pass names whose artifacts to print ('all' for every pass)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "per-batch deadline (0 = none); loops cut off by it fail individually")
	fs.StringVar(&f.Serve, "serve", "", "serve the observability admin surface on this address (e.g. :8080 or :0; /metrics, /stats, /trace, /healthz, /debug/pprof)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace_event JSON file of the run (view in Perfetto)")
	fs.StringVar(&f.Backend, "backend", "", "scheduling backend: "+strings.Join(passes.BackendNames(), ", ")+" (default sync, the paper's heuristic)")
	fs.Int64Var(&f.ExactBudget, "exact-budget", 0, "exact backend branch-and-bound node budget (0 = default, negative = unlimited)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this file after the run")
	return f
}

// StartProfiling begins the CPU profile when -cpuprofile is set. The
// returned stop function must run once after the workload (and before any
// blocking teardown like Observability.Finish with -serve): it stops the
// CPU profile, and with -memprofile it runs a GC and writes the heap
// profile so the snapshot reflects live memory, not transient garbage.
// Without either flag both the start and the stop are no-ops.
func (f *Flags) StartProfiling() (stop func() error, err error) {
	var cpu *os.File
	if f.CPUProfile != "" {
		cpu, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if f.MemProfile == "" {
			return nil
		}
		fh, err := os.Create(f.MemProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(fh); err != nil {
			fh.Close()
			return err
		}
		return fh.Close()
	}, nil
}

// BackendOptions merges the -backend/-exact-budget selection into base (the
// command's other compile options) for pipeline.Options.Compile.
func (f *Flags) BackendOptions(base passes.Options) passes.Options {
	base.Backend = f.Backend
	base.Exact.MaxNodes = f.ExactBudget
	return base
}

// DumpPasses splits -dump into pass names (nil when unset).
func (f *Flags) DumpPasses() []string {
	if f.Dump == "" {
		return nil
	}
	return strings.Split(f.Dump, ",")
}

// Observability is the wired-up observability side of one command run: the
// span recorder handed to the pipeline (nil when tracing is off) and the
// admin server (nil when -serve is off).
type Observability struct {
	// Recorder is non-nil when -serve or -trace-out asked for spans; pass
	// it as pipeline.Options.Observer.
	Recorder *obs.Recorder
	// Server is the running admin server, nil without -serve.
	Server *obs.Server
	// Addr is the bound address of the admin server ("" without -serve).
	Addr string

	flags    *Flags
	announce io.Writer

	mu      sync.Mutex
	machine []obs.Event
}

// AddMachineEvents merges pre-built machine-timeline events (the simulator
// tracer's per-processor issue and FU tracks) into the run's trace: they are
// served on /trace next to the pipeline spans and written into the
// -trace-out file. Safe from concurrent loop renderers; a no-op when neither
// -serve nor -trace-out asked for a trace.
func (o *Observability) AddMachineEvents(evs []obs.Event) {
	if o.Recorder == nil || len(evs) == 0 {
		return
	}
	o.mu.Lock()
	o.machine = append(o.machine, evs...)
	o.mu.Unlock()
}

// machineEvents snapshots the collected machine timelines.
func (o *Observability) machineEvents() []obs.Event {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]obs.Event(nil), o.machine...)
}

// Observability starts the observability side requested by the flags: a
// span recorder when -serve or -trace-out is set, plus the admin server
// when -serve is set. The bound address is announced on w (so scripts can
// scrape ":0" runs). Callers must Close the result.
func (f *Flags) Observability(metrics *pipeline.Metrics, w io.Writer) (*Observability, error) {
	if w == nil {
		w = os.Stderr
	}
	o := &Observability{flags: f, announce: w}
	if f.Serve == "" && f.TraceOut == "" {
		return o, nil
	}
	o.Recorder = obs.NewRecorder(0)
	if f.Serve == "" {
		return o, nil
	}
	o.Server = &obs.Server{
		Recorder: o.Recorder,
		Metrics:  metrics.WritePrometheus,
		Stats:    func() any { return metrics.Stats() },
		Extra:    o.machineEvents,
	}
	addr, err := o.Server.Start(f.Serve)
	if err != nil {
		return nil, err
	}
	o.Addr = addr.String()
	fmt.Fprintf(w, "obs: serving on http://%s (/metrics /stats /trace /trace.jsonl /healthz /debug/pprof/)\n", o.Addr)
	return o, nil
}

// shutdownGrace bounds how long Close waits for in-flight admin requests
// (a /metrics scrape, a /trace download) before closing hard.
const shutdownGrace = 5 * time.Second

// Finish completes the observability side after the batch ran: it writes
// the -trace-out file if requested, and with -serve it keeps the admin
// surface up until SIGINT or SIGTERM so the finished run can still be
// scraped and its trace downloaded. On either signal the server is drained
// gracefully (see Close) instead of exiting mid-scrape.
func (o *Observability) Finish() error {
	if o.flags.TraceOut != "" && o.Recorder != nil {
		fh, err := os.Create(o.flags.TraceOut)
		if err != nil {
			return err
		}
		err = obs.WriteChromeTraceMerged(fh, o.Recorder.Snapshot(), o.Recorder.Epoch(), o.machineEvents())
		if err != nil {
			fh.Close()
			return err
		}
		if err := fh.Close(); err != nil {
			return err
		}
		fmt.Fprintf(o.announce, "obs: wrote Chrome trace to %s (open in ui.perfetto.dev)\n", o.flags.TraceOut)
	}
	if o.Server != nil {
		fmt.Fprintf(o.announce, "obs: batch done; still serving on http://%s — Ctrl-C to exit\n", o.Addr)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		signal.Stop(ch)
	}
	return nil
}

// Close tears the admin server down (safe on every Observability): requests
// already being served get shutdownGrace to finish — a SIGTERM during a
// Prometheus scrape must not truncate the exposition mid-body — and only
// then are stragglers closed hard.
func (o *Observability) Close() {
	if o.Server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		_ = o.Server.Shutdown(ctx)
	}
}

// PassTimings renders the compilation-pass rows of a stats snapshot
// (scheduling and simulation stages are left to the -stats report).
func PassTimings(st pipeline.Stats) string {
	var sb strings.Builder
	for _, s := range st.Stages {
		if s.Stage == pipeline.StageSchedule || s.Stage == pipeline.StageVerify || s.Stage == pipeline.StageSimulate {
			continue
		}
		fmt.Fprintf(&sb, "%-10s %6d runs, mean %9v, max %9v, total %9v\n",
			s.Stage, s.Count, s.Mean(), s.Max, s.Total)
	}
	fmt.Fprintf(&sb, "%-10s %v\n", "compile", st.CompileTime())
	return sb.String()
}
