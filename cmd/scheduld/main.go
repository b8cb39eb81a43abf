// Command scheduld is the scheduling daemon: the batch pipeline served as
// a long-running HTTP/JSON service with request coalescing, admission
// control, load shedding and a crash-safe persistent cache tier.
//
// Usage:
//
//	scheduld -addr :8080                    # serve on :8080
//	scheduld -disk /var/lib/scheduld        # persistent tier: restarts come up warm
//	scheduld -rate 50 -burst 100            # per-tenant token bucket (X-Tenant header)
//	scheduld -inflight 8 -queue 32          # admission bound + bounded queue
//	scheduld -breaker-threshold 5 -breaker-cooldown 30s
//	scheduld -request-timeout 30s -drain 10s
//	scheduld -backend exact -n 100
//	scheduld -log info -flight-dir /var/log/scheduld -machine-obs
//
// Endpoints: POST /v1/schedule, GET /healthz, /metrics, /stats,
// /debug/flightrecord and /debug/pprof/, on one listener: the admin routes
// are internal/obs's, the same surface the batch CLIs serve with -serve.
// Every request carries a correlation ID (the client's X-Request-Id, or a
// minted one), echoed on the response and keyed into every structured log
// line; the always-on flight recorder dumps its ring as JSONL on panic,
// deadline breach, breaker-open — and on SIGQUIT, for live inspection
// without stopping the daemon. On SIGTERM (or SIGINT) the daemon drains:
// admitted requests finish within -drain, new ones are shed with 503 +
// Retry-After, the disk tier is flushed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"doacross/internal/passes"
	"doacross/internal/pipeline"
	"doacross/internal/server"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", ":8080", "listen address (\":0\" picks a free port)")
	disk := flag.String("disk", "", "directory of the crash-safe persistent cache tier (\"\" = off)")
	cacheCap := flag.Int("cache", 0, "in-memory cache capacity in entries (0 = unbounded)")
	rate := flag.Float64("rate", 0, "per-tenant token-bucket refill rate in requests/s (0 = no rate limit)")
	burst := flag.Float64("burst", 0, "token-bucket capacity (0 = max(1, rate))")
	inflight := flag.Int("inflight", 0, "max concurrently served requests (0 = 2*GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max requests waiting for admission (0 = 4*inflight, negative = none)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive backend failures that open its circuit (0 = 5, negative = off)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-circuit cooldown before a probe (0 = 30s)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline, queue wait included (0 = 30s, negative = none)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain budget for admitted requests")
	backend := flag.String("backend", "", "default scheduling backend: "+strings.Join(passes.BackendNames(), ", ")+" (default sync)")
	n := flag.Int("n", 0, "default trip count (0 = 100, the paper's)")
	logLevel := flag.String("log", "", "structured decision log level on stderr: debug, info, warn, error (\"\" = off; the flight recorder records regardless)")
	flightDir := flag.String("flight-dir", "", "directory for triggered flight-recorder dumps (\"\" = stderr)")
	flightRing := flag.Int("flight-ring", 0, "flight-recorder ring capacity in records (0 = 256)")
	machineObs := flag.Bool("machine-obs", false, "trace every simulation and attach machine-level utilization reports to responses")
	flag.Parse()

	var logger *slog.Logger
	if *logLevel != "" {
		var lv slog.Level
		if err := lv.UnmarshalText([]byte(*logLevel)); err != nil {
			fmt.Fprintf(os.Stderr, "scheduld: -log %s: %v\n", *logLevel, err)
			return 2
		}
		logger = slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lv}))
	}

	popt := pipeline.Options{N: *n, Utilization: *machineObs}
	popt.Compile.Backend = *backend
	srv, err := server.New(server.Config{
		Pipeline:         popt,
		CacheCap:         *cacheCap,
		DiskDir:          *disk,
		MaxInFlight:      *inflight,
		QueueLimit:       *queue,
		RatePerSec:       *rate,
		Burst:            *burst,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		RequestTimeout:   *requestTimeout,
		Logger:           logger,
		FlightDir:        *flightDir,
		FlightRing:       *flightRing,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "scheduld: %v\n", err)
		return 1
	}
	if *disk != "" {
		fmt.Fprintf(os.Stderr, "scheduld: disk tier %s: %s\n", *disk, srv.LoadStats())
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scheduld: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "scheduld: serving on http://%s (/v1/schedule /healthz /metrics /stats /debug/flightrecord /debug/pprof/)\n", bound)

	// SIGQUIT dumps the flight recorder without stopping the daemon.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer signal.Stop(quit)
	go func() {
		for range quit {
			if path, err := srv.DumpFlightRecord("sigquit"); err != nil {
				fmt.Fprintf(os.Stderr, "scheduld: flight-record dump: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "scheduld: flight record dumped to %s\n", path)
			}
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	fmt.Fprintf(os.Stderr, "scheduld: draining (up to %v)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "scheduld: shutdown: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "scheduld: drained cleanly")
	return 0
}
