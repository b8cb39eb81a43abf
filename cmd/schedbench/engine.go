package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"doacross/internal/obs"
	"doacross/internal/pipeline"
)

// Measurement constants. Set-up is timed at least minSetupReps times and
// until the set-ups have taken setupBudget (at most maxSetupReps times), and
// the median reported; checkSamples seeded ops are re-derived after the
// window; replayCases seeded problems are replayed per layer in a traced run.
const (
	minSetupReps = 7
	maxSetupReps = 200
	setupBudget  = time.Second
	checkSamples = 64
	replayCases  = 256
	// traceRing bounds the spans a traced run keeps: the ring holds the
	// latest ones and counts the rest as dropped.
	traceRing = 1 << 16
	// rssEvery is the peak-RSS sampling period.
	rssEvery = 10 * time.Millisecond
	// sliceLen is the length of the slices a window is cut into: the
	// end-to-end timings and peak RSS are taken per slice and reported as the
	// median over the slices, so that contention from outside the process
	// that lasts less than half the window does not move them.
	sliceLen = 2 * time.Second
)

// config fixes one run of one workload.
type config struct {
	seed     int64
	seconds  float64 // length of the measured window
	traced   bool
	traceOut string // Chrome trace destination of a traced run ("" = none)
	root     string // repository root: testdata/kernels and REPORT.md
	// procs is the closed-loop client count of the serve workloads and the
	// pipeline worker count of the batch workloads.
	procs   int
	hot     int // serve-warm hot-set size in distinct sources
	samples int // ops whose outputs are re-derived after the window
	replay  int // scheduling problems the per-layer replay times
	// ops > 0 ends each window after that many ops instead of after seconds,
	// and set-up after minSetupReps repetitions, so that tests see a fixed
	// amount of work.
	ops int
}

// repoRoot finds the repository checkout the benchmark reads its inputs
// from: the working directory or one of its parents.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "testdata", "kernels")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "REPORT.md")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository checkout (testdata/kernels and REPORT.md) above the working directory")
		}
		dir = parent
	}
}

// probe is the benchmark's own instrumentation around scheduld's handler:
// it sums time spent inside the handler and, in a traced window, records a
// handler span under the client span of the same X-Request-Id.
type probe struct {
	handlerNS atomic.Int64
	rec       atomic.Pointer[obs.Recorder]
	spans     sync.Map // X-Request-Id -> client obs.Span
}

func (p *probe) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := p.rec.Load()
		var sp obs.Span
		if rec != nil {
			parent, _ := p.spans.Load(r.Header.Get("X-Request-Id"))
			ps, _ := parent.(obs.Span)
			sp = rec.Start(obs.KindStage, "handler", ps)
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		p.handlerNS.Add(int64(time.Since(start)))
		rec.End(&sp, nil, obs.S("request_id", r.Header.Get("X-Request-Id")))
	})
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's result. Its JSON form is the benchmark's last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// table is the printed metric list, in order, including diagnostics that
	// are not in Metrics.
	table    []namedValue
	problems []string
}

type namedValue struct {
	name, unit string
	value      float64
}

func (r *report) add(name, unit string, v float64, gated bool) {
	r.table = append(r.table, namedValue{name, unit, v})
	if gated {
		r.Metrics[name] = metricValue{v, unit}
	}
}

// bench is the state of one run.
type bench struct {
	w    workload
	cfg  config
	env  *env
	sys  system
	next int // next op index; ops draw their inputs from it

	mu       sync.Mutex
	picked   []pick // seeded choice of served results to re-derive
	problems []string
}

// pick is one served result chosen for re-derivation, with its priority:
// the checkSamples ops of lowest priority win, so the choice depends on the
// seed and the op indices, not on timing.
type pick struct {
	prio uint64
	s    sample
}

// window is what one measured window saw.
type window struct {
	ops, failed          int
	elapsed              time.Duration
	done                 []opTime    // every op, in completion order
	rss                  []rssSample // resident set samples
	cycles, trips, loops int64
	coalesced            int
	before, after        pipeline.Stats
	mallocs, allocBytes  uint64
	gcCPU, cpu           float64
	handler              time.Duration
}

// opTime is one op: its latency and when, from the window's start, it
// completed.
type opTime struct{ at, lat time.Duration }

// rssSample is the resident set in MiB at an offset into the window.
type rssSample struct {
	at time.Duration
	mb float64
}

// measure runs one workload: untimed preparation, timed set-ups, a warm-up
// op for batch workloads, the measured window(s), then the correctness
// check of the seeded samples.
func measure(w workload, cfg config) (*report, error) {
	e := &env{cfg: cfg}
	defer func() {
		if e.diskDir != "" {
			os.RemoveAll(e.diskDir)
		}
	}()
	if w.prepare != nil {
		if err := w.prepare(e); err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
		}
	}
	var sys system
	var setups []time.Duration
	budget := setupBudget
	if cfg.ops > 0 {
		budget = 0
	}
	for spent := time.Duration(0); len(setups) < maxSetupReps &&
		(len(setups) < minSetupReps || spent < budget); {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		start := time.Now()
		s, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d)
		sys = s
	}
	defer sys.close()
	var secs []float64
	for _, d := range setups {
		secs = append(secs, d.Seconds())
	}
	setupS := medianOf(secs)
	b := &bench{w: w, cfg: cfg, env: e, sys: sys}
	if !w.serve {
		if res := sys.op(b.next)(obs.Span{})(); res.err != nil {
			return nil, fmt.Errorf("%s: warm-up op: %w", w.name, res.err)
		}
		b.next++
	}

	rep := &report{Metrics: map[string]metricValue{}}
	var win window
	if !cfg.traced {
		win = b.window(cfg.seconds, nil)
		if len(win.rss) == 0 {
			return nil, errors.New("peak RSS unavailable: /proc/self/status is unreadable")
		}
		endToEnd(rep, setupS, win)
		rep.Attempted = win.ops
		rep.Failed = win.failed
	} else {
		// Half the window untraced, half traced: the ratio of their
		// throughputs is the tracing overhead.
		plain := b.window(cfg.seconds/2, nil)
		rec := obs.NewRecorder(traceRing)
		win = b.window(cfg.seconds/2, rec)
		rs, err := replay(sys.replay(cfg.replay), rec)
		if err != nil {
			return nil, fmt.Errorf("%s: replay: %w", w.name, err)
		}
		perLayer(rep, b, win, rs, setupS)
		rep.add("trace.overhead_ratio", "ratio", 1-opsPerSec(win)/opsPerSec(plain), true)
		rep.Attempted = plain.ops + win.ops
		rep.Failed = plain.failed + win.failed
		if cfg.traceOut != "" {
			if err := writeTrace(cfg.traceOut, rec); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range b.picked {
		if err := checkSample(p.s, p.prio); err != nil {
			rep.Failed++
			b.problems = append(b.problems, err.Error())
		}
	}
	rep.add("checked_samples", "count", float64(len(b.picked)), false)
	rep.problems = b.problems
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0 && len(b.picked) > 0
	return rep, nil
}

func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// window drives the system with closed-loop clients for seconds (or
// cfg.ops ops) and snapshots the registry, the allocator and peak RSS around
// it. rec, when non-nil, records a span per op and per handler call.
func (b *bench) window(seconds float64, rec *obs.Recorder) window {
	var win window
	b.env.probe.rec.Store(rec)
	defer b.env.probe.rec.Store(nil)
	debug.FreeOSMemory() // start every window from the same collected, returned heap
	win.before = b.sys.metrics().Stats()
	handler0 := b.env.probe.handlerNS.Load()
	gc0, cpu0 := cpuSeconds()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	clients := 1
	if b.w.serve {
		clients = b.cfg.procs
	}
	first := b.next
	start := time.Now()
	stopRSS := sampleRSS(start, &win.rss)
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b.mu.Lock()
				if (b.cfg.ops > 0 && b.next-first >= b.cfg.ops) || (b.cfg.ops == 0 && !time.Now().Before(deadline)) {
					b.mu.Unlock()
					return
				}
				i := b.next
				b.next++
				do := b.sys.op(i)
				b.mu.Unlock()

				sp := rec.Start(obs.KindRequest, b.w.name, obs.Span{})
				t0 := time.Now()
				finish := do(sp)
				end := time.Now()
				rec.End(&sp, nil, obs.I("op", int64(i)))
				res := finish()

				b.mu.Lock()
				win.add(opTime{at: end.Sub(start), lat: end.Sub(t0)}, res)
				b.choose(i, res)
				b.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	win.elapsed = time.Since(start)
	stopRSS()
	runtime.ReadMemStats(&ms1)
	gc1, cpu1 := cpuSeconds()
	win.after = b.sys.metrics().Stats()
	win.handler = time.Duration(b.env.probe.handlerNS.Load() - handler0)
	win.mallocs = ms1.Mallocs - ms0.Mallocs
	win.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	win.gcCPU, win.cpu = gc1-gc0, cpu1-cpu0
	return win
}

// add folds one op into the window; the caller holds b.mu.
func (win *window) add(op opTime, res opResult) {
	win.ops++
	win.done = append(win.done, op)
	if res.err != nil {
		win.failed++
		return
	}
	win.cycles += res.cycles
	win.trips += res.trips
	win.loops += res.loops
	if res.coalesced {
		win.coalesced++
	}
}

// choose offers op i's served results to the seeded sample; a failed op is
// recorded as a problem instead. The caller holds b.mu.
func (b *bench) choose(i int, res opResult) {
	if res.err != nil {
		if len(b.problems) < 10 {
			b.problems = append(b.problems, fmt.Sprintf("op %d: %v", i, res.err))
		}
		return
	}
	if len(res.samples) == 0 || b.cfg.samples == 0 {
		return
	}
	prio := mix(uint64(b.cfg.seed), uint64(i))
	p := pick{prio: prio, s: res.samples[mix(prio, 0)%uint64(len(res.samples))]}
	if len(b.picked) < b.cfg.samples {
		b.picked = append(b.picked, p)
		return
	}
	worst := 0
	for k := range b.picked {
		if b.picked[k].prio > b.picked[worst].prio {
			worst = k
		}
	}
	if prio < b.picked[worst].prio {
		b.picked[worst] = p
	}
}

// endToEnd reports the gated end-to-end metrics of an untraced window.
func endToEnd(rep *report, setupS float64, win window) {
	ops := float64(win.ops)
	sl := win.slices()
	var rate, p50, p90, rss []float64
	for _, s := range sl {
		rate = append(rate, float64(len(s.lat))/s.width.Seconds())
		if len(s.lat) > 0 {
			p50 = append(p50, ms(quantile(s.lat, 0.50)))
			p90 = append(p90, ms(quantile(s.lat, 0.90)))
		}
		if s.peak > 0 {
			rss = append(rss, s.peak)
		}
	}
	rep.add("setup_s", "s", setupS, true)
	rep.add("ops_per_s", "op/s", medianOf(rate), true)
	rep.add("op_p50_ms", "ms", medianOf(p50), true)
	rep.add("op_p90_ms", "ms", medianOf(p90), true)
	rep.add("op_p99_ms", "ms", ms(quantile(win.latencies(), 0.99)), false)
	rep.add("allocs_per_op", "allocs", float64(win.mallocs)/ops, true)
	rep.add("peak_rss_mb", "MiB", medianOf(rss), true)
	rep.add("ops", "count", ops, false)
	rep.add("slices", "count", float64(len(sl)), false)
	rep.add("sim_cycles_per_op", "cycles", float64(win.cycles)/ops, false)
}

// slice is one sliceLen-long part of a window: the latencies of the ops that
// completed in it and the peak of its RSS samples.
type slice struct {
	width time.Duration
	lat   []time.Duration
	peak  float64
}

// slices cuts the window into whole sliceLen slices (one, when it is
// shorter).
func (win *window) slices() []slice {
	k := max(1, int(win.elapsed/sliceLen))
	width := win.elapsed / time.Duration(k)
	out := make([]slice, k)
	idx := func(at time.Duration) int { return min(max(int(at/width), 0), k-1) }
	for i := range out {
		out[i].width = width
	}
	for _, op := range win.done {
		s := &out[idx(op.at)]
		s.lat = append(s.lat, op.lat)
	}
	for _, r := range win.rss {
		s := &out[idx(r.at)]
		s.peak = max(s.peak, r.mb)
	}
	return out
}

func (win *window) latencies() []time.Duration {
	out := make([]time.Duration, len(win.done))
	for i, op := range win.done {
		out[i] = op.lat
	}
	return out
}

func opsPerSec(win window) float64 { return float64(win.ops) / win.elapsed.Seconds() }

// medianOf is the median of vs, the mean of the middle two for an even count.
func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// cpuSeconds reads the runtime's GC and total CPU-time estimates.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// sampleRSS appends the process's resident set to samples every rssEvery
// until the returned stop is called; stop returns once the sampler has
// exited.
func sampleRSS(start time.Time, samples *[]rssSample) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb, err := rssMiB(); err == nil {
				*samples = append(*samples, rssSample{at: time.Since(start), mb: mb})
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// rssMiB reads VmRSS from /proc/self/status.
func rssMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmRSS in /proc/self/status")
}
