package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"doacross/internal/core"
	"doacross/internal/dlx"
	"doacross/internal/lang"
	"doacross/internal/loopgen"
	"doacross/internal/obs"
	"doacross/internal/perfect"
	"doacross/internal/pipeline"
	"doacross/internal/server"
	"doacross/internal/tables"
)

// Workload sizes. The reasons for each are in doc.go.
const (
	// longTripLo and longTripHi bound the trip counts batch-longtrip draws.
	longTripLo, longTripHi = 10000, 40000
	// coldN is the trip count of every serve-cold request.
	coldN = 100
	// coldCacheCap bounds serve-cold's in-memory cache: a default daemon's
	// unbounded cache holds ~100 KB per distinct loop and grows without
	// limit under a cold stream.
	coldCacheCap = 1024
	// hotSetSize is the number of distinct loop sources serve-warm's hot set
	// holds, each requested at both warmTrips.
	hotSetSize = 500
	// zipfS is the skew of serve-warm's request popularity.
	zipfS = 1.1
	// hotSeed fixes serve-warm's hot set and popularity ranks. A few ranks
	// draw most requests, so a seeded hot set would make the cost of an op
	// depend on the seed; the run seed draws the request sequence instead.
	hotSeed = 1
)

// warmTrips are the trip counts every hot-set source is served at.
var warmTrips = [...]int{100, 1000}

// workload is one traffic mix of the benchmark.
type workload struct {
	name string
	// serve workloads drive scheduld over loopback HTTP from cfg.procs
	// closed-loop clients; batch workloads run one op at a time, spread over
	// cfg.procs pipeline workers, after one untimed warm-up op.
	serve bool
	// prepare does untimed one-off preparation; setup builds the system under
	// test and is what setup_s times.
	prepare func(e *env) error
	setup   func(e *env) (system, error)
}

var workloads = []workload{
	{name: "paper-tables", prepare: prepareReport, setup: setupPaperTables},
	{name: "batch-longtrip", setup: setupBatchLongtrip},
	{name: "serve-cold", serve: true, setup: setupServeCold},
	{name: "serve-warm", serve: true, prepare: prepareServeWarm, setup: setupServeWarm},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// system is a set-up system under test.
type system interface {
	// op returns the call that performs op i. The engine calls op in op-index
	// order under its lock, so input generators need no lock of their own.
	op(i int) call
	// metrics is the pipeline registry the system's stages report into.
	metrics() *pipeline.Metrics
	// replay lists n seeded scheduling problems of the workload for the
	// per-layer replay to time.
	replay(n int) []replayCase
	close()
}

// call performs one op under the op's span; the returned finish validates
// what the op served, outside the op's measured latency.
type call func(sp obs.Span) (finish func() opResult)

// opResult is what one op served.
type opResult struct {
	// cycles sums the simulated time of the served synchronization-aware
	// schedules; trips sums their trip counts; loops counts them.
	cycles, trips, loops int64
	coalesced            bool
	// samples are the served results the post-window check may re-derive.
	samples []sample
	err     error
}

// sample is one served result: a loop scheduled on a machine at a trip
// count, and the simulated time served for its synchronization-aware
// schedule.
type sample struct {
	src     string     // loop source, when the op sent text
	loop    *lang.Loop // parsed loop, when the op sent an AST
	machine dlx.Config
	n       int
	cycles  int
}

// env carries what setup needs and what it leaves for the per-layer report.
type env struct {
	cfg   config
	probe probe
	// report is REPORT.md, whose Table 3 paper-tables must reproduce.
	report string
	// serve-warm: the prepared disk tier, the hot set it holds, and what the
	// latest restart loaded.
	diskDir string
	hot     []hotEntry
	loaded  int
}

// mix is splitmix64: it derives independent per-op seeds from the run seed.
func mix(a, b uint64) uint64 {
	z := a + (b+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// ---- paper-tables ----

func prepareReport(e *env) error {
	b, err := os.ReadFile(filepath.Join(e.cfg.root, "REPORT.md"))
	if err != nil {
		return err
	}
	e.report = string(b)
	return nil
}

type tablesSystem struct {
	seed     int64
	suites   []*perfect.Suite
	byName   map[string]*perfect.Suite
	machines map[string]dlx.Config
	reg      *pipeline.Metrics
	workers  int
	report   string
}

func setupPaperTables(e *env) (system, error) {
	suites, err := perfect.Suites()
	if err != nil {
		return nil, err
	}
	s := &tablesSystem{seed: e.cfg.seed, suites: suites, byName: map[string]*perfect.Suite{},
		machines: map[string]dlx.Config{}, reg: pipeline.NewMetrics(), workers: e.cfg.procs, report: e.report}
	for _, su := range suites {
		s.byName[su.Profile.Name] = su
	}
	for _, m := range dlx.PaperConfigs() {
		s.machines[m.Name] = m
	}
	return s, nil
}

func (s *tablesSystem) metrics() *pipeline.Metrics { return s.reg }
func (s *tablesSystem) close()                     {}

// op regenerates Tables 1-3 with a fresh cache; the inputs are the paper's
// fixed suites, so every op is the same.
func (s *tablesSystem) op(int) call {
	return func(obs.Span) func() opResult {
		res, err := tables.RunParallelWith(s.suites, core.CriticalPath, pipeline.Options{
			Workers: s.workers, Cache: pipeline.NewCache(), Metrics: s.reg,
		})
		return func() opResult { return s.served(res, err) }
	}
}

func (s *tablesSystem) served(res *tables.Result, err error) opResult {
	if err == nil && len(res.Failures) > 0 {
		err = fmt.Errorf("%s: %w", res.Failures[0].Name, res.Failures[0].Err)
	}
	if err != nil {
		return opResult{err: err}
	}
	if t3 := res.RenderTable3(); !strings.Contains(s.report, t3) {
		return opResult{err: fmt.Errorf("Table 3 differs from REPORT.md:\n%s", t3)}
	}
	var out opResult
	for _, lr := range res.Loops {
		su := s.byName[lr.Suite]
		n := su.Profile.N
		out.cycles += int64(lr.Tb)
		out.trips += int64(n)
		out.loops++
		out.samples = append(out.samples, sample{
			loop: su.Doacross()[lr.Index].AST, machine: s.machines[lr.Config], n: n, cycles: lr.Tb,
		})
	}
	return out
}

// replay draws n seeded (loop, machine) problems of the tables.
func (s *tablesSystem) replay(n int) []replayCase {
	var cases []replayCase
	for _, su := range s.suites {
		for _, l := range su.Doacross() {
			for _, m := range dlx.PaperConfigs() {
				cases = append(cases, replayCase{loop: l.AST, machine: m, n: su.Profile.N, baseline: core.CriticalPath})
			}
		}
	}
	rand.New(rand.NewSource(s.seed)).Shuffle(len(cases), func(a, b int) { cases[a], cases[b] = cases[b], cases[a] })
	return cases[:min(n, len(cases))]
}

// ---- batch-longtrip ----

type batchSystem struct {
	loops   []*lang.Loop
	seed    uint64
	machine dlx.Config
	reg     *pipeline.Metrics
	workers int
}

func setupBatchLongtrip(e *env) (system, error) {
	loops, err := kernelLoops(e.cfg.root)
	if err != nil {
		return nil, err
	}
	return &batchSystem{loops: loops, seed: uint64(e.cfg.seed), machine: dlx.Standard(4, 1),
		reg: pipeline.NewMetrics(), workers: e.cfg.procs}, nil
}

// kernelLoops parses every loop of testdata/kernels, multi-loop files split.
func kernelLoops(root string) ([]*lang.Loop, error) {
	paths, err := filepath.Glob(filepath.Join(root, "testdata", "kernels", "*.loop"))
	if err != nil {
		return nil, err
	}
	var loops []*lang.Loop
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		f, err := lang.ParseFile(string(b))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		loops = append(loops, f.Loops...)
	}
	if len(loops) == 0 {
		return nil, errors.New("no kernels under testdata/kernels")
	}
	return loops, nil
}

func (s *batchSystem) metrics() *pipeline.Metrics { return s.reg }
func (s *batchSystem) close()                     {}

// trips draws op i's trip counts: two per kernel.
func (s *batchSystem) trips(i int) []int {
	rng := rand.New(rand.NewSource(int64(mix(s.seed, uint64(i)))))
	out := make([]int, 2*len(s.loops))
	for k := range out {
		out[k] = longTripLo + rng.Intn(longTripHi-longTripLo+1)
	}
	return out
}

// op schedules every kernel at two trip counts with a fresh cache, so each
// loop compiles and schedules once and simulates twice. The second round of
// requests follows the first, so no two workers ever race on one loop.
func (s *batchSystem) op(i int) call {
	trips := s.trips(i)
	reqs := make([]pipeline.Request, len(trips))
	for k, n := range trips {
		reqs[k] = pipeline.Request{Name: fmt.Sprintf("kernel%d@%d", k%len(s.loops), n),
			Loop: s.loops[k%len(s.loops)], N: n}
	}
	return func(obs.Span) func() opResult {
		b, err := pipeline.Run(reqs, pipeline.Options{
			Workers: s.workers, Cache: pipeline.NewCache(), Metrics: s.reg,
			Machines: []dlx.Config{s.machine},
		})
		return func() opResult {
			if err != nil {
				return opResult{err: err}
			}
			var out opResult
			for k := range b.Loops {
				lr := &b.Loops[k]
				if lr.Err != nil {
					return opResult{err: fmt.Errorf("%s: %w", lr.Name, lr.Err)}
				}
				if len(lr.Machines) != 1 || lr.Degraded() || lr.Machines[0].SyncTime <= 0 {
					return opResult{err: fmt.Errorf("%s: degraded or empty result", lr.Name)}
				}
				mr := &lr.Machines[0]
				out.cycles += int64(mr.SyncTime)
				out.trips += int64(lr.N)
				out.loops++
				out.samples = append(out.samples, sample{loop: reqs[k].Loop, machine: s.machine, n: lr.N, cycles: mr.SyncTime})
			}
			return out
		}
	}
}

// replay takes the first n problems of the op stream.
func (s *batchSystem) replay(n int) []replayCase {
	var cases []replayCase
	for i := 0; len(cases) < n; i++ {
		for k, trips := range s.trips(i) {
			cases = append(cases, replayCase{loop: s.loops[k%len(s.loops)], machine: s.machine, n: trips})
		}
	}
	return cases[:n]
}

// ---- serve-cold and serve-warm ----

// serveSystem is an in-process scheduld behind a loopback HTTP listener,
// with the benchmark's probe wrapped around its handler.
type serveSystem struct {
	srv     *server.Server
	hs      *httptest.Server
	hc      *http.Client
	tr      *http.Transport
	probe   *probe
	machine dlx.Config
	// next returns the next op's loop source and trip count.
	next  func() (string, int)
	cases func(n int) []replayCase
}

func newServeSystem(e *env, cfg server.Config) (*serveSystem, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: e.cfg.procs, IdleConnTimeout: time.Minute}
	return &serveSystem{
		srv: srv, hs: httptest.NewServer(e.probe.wrap(srv.Handler())),
		hc: &http.Client{Transport: tr}, tr: tr, probe: &e.probe,
		machine: dlx.Standard(4, 1), // the daemon's default machine
	}, nil
}

func (s *serveSystem) metrics() *pipeline.Metrics { return s.srv.Metrics() }
func (s *serveSystem) replay(n int) []replayCase  { return s.cases(n) }

// close stops the listener. The daemon itself started no goroutines and has
// nothing in flight once the listener is closed.
func (s *serveSystem) close() {
	s.hs.Close()
	s.tr.CloseIdleConnections()
}

// op sends one POST /v1/schedule through the public client, without
// retries, tagged with the op index as its X-Request-Id.
func (s *serveSystem) op(i int) call {
	src, n := s.next()
	rid := "op-" + strconv.Itoa(i)
	return func(sp obs.Span) func() opResult {
		resp, err := s.send(rid, src, n, sp)
		return func() opResult { return s.served(src, n, resp, err) }
	}
}

func (s *serveSystem) send(rid, src string, n int, sp obs.Span) (*server.ScheduleResponse, error) {
	if s.probe.rec.Load() != nil {
		s.probe.spans.Store(rid, sp)
		defer s.probe.spans.Delete(rid)
	}
	c := server.Client{BaseURL: s.hs.URL, HTTPClient: s.hc, RequestID: rid, MaxRetries: -1}
	return c.Schedule(context.Background(), server.ScheduleRequest{Source: src, N: n})
}

// served checks a 200 response: machines present, none degraded.
func (s *serveSystem) served(src string, n int, resp *server.ScheduleResponse, err error) opResult {
	if err != nil {
		return opResult{err: err}
	}
	if len(resp.Machines) == 0 {
		return opResult{err: fmt.Errorf("%s: response without machines", resp.RequestID)}
	}
	out := opResult{coalesced: resp.Coalesced}
	for _, m := range resp.Machines {
		if m.Degraded || m.Machine != s.machine.Name || m.SyncTime <= 0 {
			return opResult{err: fmt.Errorf("%s: degraded or unexpected result on %q: %s",
				resp.RequestID, m.Machine, m.DegradedReason)}
		}
		out.cycles += int64(m.SyncTime)
		out.trips += int64(n)
		out.loops++
		out.samples = append(out.samples, sample{src: src, machine: s.machine, n: n, cycles: m.SyncTime})
	}
	return out
}

// coldGen yields distinct seeded loopgen sources: shapes cycle, 1-6
// statements, deduplicated by text.
type coldGen struct {
	seed uint64
	k    uint64
	seen map[string]bool
}

func newColdGen(seed int64) *coldGen {
	return &coldGen{seed: uint64(seed), seen: map[string]bool{}}
}

func (g *coldGen) next() string {
	shapes := loopgen.Shapes()
	for {
		k := g.k
		g.k++
		src := loopgen.Generate(mix(g.seed, k), loopgen.Options{
			Shape: shapes[k%uint64(len(shapes))], Stmts: 1 + int(k/uint64(len(shapes)))%6,
		})
		if !g.seen[src] {
			g.seen[src] = true
			return src
		}
	}
}

func setupServeCold(e *env) (system, error) {
	s, err := newServeSystem(e, server.Config{CacheCap: coldCacheCap})
	if err != nil {
		return nil, err
	}
	gen := newColdGen(e.cfg.seed)
	s.next = func() (string, int) { return gen.next(), coldN }
	// The replay takes the first n sources of the op stream.
	s.cases = func(n int) []replayCase {
		g := newColdGen(e.cfg.seed)
		cases := make([]replayCase, n)
		for i := range cases {
			cases[i] = replayCase{src: g.next(), machine: s.machine, n: coldN}
		}
		return cases
	}
	return s, nil
}

// hotEntry is one request of serve-warm's hot set.
type hotEntry struct {
	src string
	n   int
}

// prepareServeWarm fills a disk tier with the hot set: the kernels plus
// loopgen sources, each at every warm trip count, served by a first
// daemon that then shuts down. Sources whose scheduling problem another
// source already posed are dropped, since the disk tier keeps one source
// per problem and the dropped one would compile again after a restart.
func prepareServeWarm(e *env) error {
	dir, err := os.MkdirTemp("", "schedbench-warm-")
	if err != nil {
		return err
	}
	e.diskDir = dir
	s, err := newServeSystem(e, server.Config{DiskDir: dir})
	if err != nil {
		return err
	}
	defer s.close()
	if err := fillHotSet(e, s); err != nil {
		return err
	}
	// Shutdown flushes the disk tier, as a daemon stopping would.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return err
	}
	// Popularity ranks are a fixed permutation of the hot set.
	rng := rand.New(rand.NewSource(hotSeed))
	rng.Shuffle(len(e.hot), func(a, b int) { e.hot[a], e.hot[b] = e.hot[b], e.hot[a] })
	return nil
}

func fillHotSet(e *env, s *serveSystem) error {
	kernels, err := kernelLoops(e.cfg.root)
	if err != nil {
		return err
	}
	var srcs []string
	for _, l := range kernels {
		srcs = append(srcs, l.String())
	}
	gen := newColdGen(hotSeed)
	keys := map[string]bool{}
	for k := 0; len(keys) < e.cfg.hot; k++ {
		var src string
		if k < len(srcs) {
			src = srcs[k]
		} else {
			src = gen.next()
		}
		var key string
		for j, n := range warmTrips {
			resp, err := s.send("prepare", src, n, obs.Span{})
			if res := s.served(src, n, resp, err); res.err != nil {
				return fmt.Errorf("populate disk tier: %w", res.err)
			}
			if j == 0 {
				if key = resp.Machines[0].Key; keys[key] {
					break
				}
			}
		}
		if keys[key] {
			continue
		}
		keys[key] = true
		for _, n := range warmTrips {
			e.hot = append(e.hot, hotEntry{src: src, n: n})
		}
	}
	return nil
}

// setupServeWarm is the timed restart: server.New re-verifies and loads
// every disk entry into memory.
func setupServeWarm(e *env) (system, error) {
	s, err := newServeSystem(e, server.Config{DiskDir: e.diskDir})
	if err != nil {
		return nil, err
	}
	ls := s.srv.LoadStats()
	if ls.Loaded != len(e.hot) || ls.Stale+ls.Corrupt+ls.Errors > 0 {
		s.close()
		return nil, fmt.Errorf("disk tier restart: %s", ls)
	}
	e.loaded = ls.Loaded
	zipf := newZipf(e.cfg.seed, len(e.hot))
	s.next = func() (string, int) {
		h := e.hot[zipf.Uint64()]
		return h.src, h.n
	}
	// The replay takes the first n requests of the op stream.
	s.cases = func(n int) []replayCase {
		z := newZipf(e.cfg.seed, len(e.hot))
		cases := make([]replayCase, n)
		for i := range cases {
			h := e.hot[z.Uint64()]
			cases[i] = replayCase{src: h.src, machine: s.machine, n: h.n}
		}
		return cases
	}
	return s, nil
}

func newZipf(seed int64, n int) *rand.Zipf {
	return rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, uint64(n-1))
}
