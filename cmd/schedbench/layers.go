package main

import (
	"fmt"
	"time"

	"doacross"
	"doacross/internal/check"
	"doacross/internal/core"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/lang"
	"doacross/internal/obs"
	"doacross/internal/passes"
	"doacross/internal/pipeline"
	"doacross/internal/sim"
)

// compileStages are the pipeline's compilation passes, in pipeline order;
// their names are the registry's stage names and the
// doacross_stage_duration_seconds{stage=...} labels.
var compileStages = []string{
	passes.PassParse, passes.PassIfConvert, passes.PassAnalyze,
	passes.PassSyncInsert, passes.PassCodegen, passes.PassGraph,
}

// replayCase is one scheduling problem the per-layer replay times: a loop
// (as source or AST) on a machine at a trip count, with the workload's
// list-scheduling baseline.
type replayCase struct {
	src      string
	loop     *lang.Loop
	machine  dlx.Config
	n        int
	baseline core.ListPriority
}

// replayStats sums the replay's direct calls into the schedulers, the
// verifier and the simulator, and the size of the compiled loops.
type replayStats struct {
	cases                        int
	list, sync, simList, simSync time.Duration
	verify, timing               time.Duration
	loops, instrs, arcs          int
}

// replay compiles each case through the facade (untimed), then times
// core.Scratch.List and SyncWithOptions, check.Verify of both schedules,
// sim.Time of both and check.VerifyTiming of the synchronization-aware one,
// with a span per call under a span per case.
func replay(cases []replayCase, rec *obs.Recorder) (replayStats, error) {
	var rs replayStats
	sc := core.NewScratch()
	progs := map[any]*doacross.Program{}
	for _, c := range cases {
		var key any = c.src
		if c.loop != nil {
			key = c.loop
		}
		prog := progs[key]
		if prog == nil {
			var err error
			if c.loop != nil {
				prog, err = doacross.CompileLoop(c.loop)
			} else {
				prog, err = doacross.Compile(c.src)
			}
			if err != nil {
				return rs, err
			}
			progs[key] = prog
			rs.loops++
			rs.instrs += len(prog.Code.Instrs)
			rs.arcs += len(prog.Graph.SyncPaths())
		}
		if err := replayOne(sc, prog.Graph, c, rec, &rs); err != nil {
			return rs, fmt.Errorf("%s n=%d: %w", c.machine.Name, c.n, err)
		}
		rs.cases++
	}
	return rs, nil
}

func replayOne(sc *core.Scratch, g *dfg.Graph, c replayCase, rec *obs.Recorder, rs *replayStats) (err error) {
	cs := rec.Start(obs.KindRequest, "replay", obs.Span{})
	var lt, st sim.Timing
	defer func() {
		rec.End(&cs, err, obs.S("machine", c.machine.Name), obs.I("n", int64(c.n)),
			obs.I("list_cycles", int64(lt.Total)), obs.I("sync_cycles", int64(st.Total)))
	}()
	timed := func(name string, acc *time.Duration, f func() error) error {
		sp := rec.Start(obs.KindStage, name, cs)
		start := time.Now()
		err := f()
		*acc += time.Since(start)
		rec.End(&sp, err)
		return err
	}
	opt := sim.Options{Lo: 1, Hi: c.n}
	var list, syn *core.Schedule
	if err = timed("schedule.list", &rs.list, func() (err error) {
		list, err = sc.List(g, c.machine, c.baseline)
		return err
	}); err != nil {
		return err
	}
	list = list.Clone() // the scratch recycles list's storage on its next call
	if err = timed("schedule.sync", &rs.sync, func() (err error) {
		syn, err = sc.SyncWithOptions(g, c.machine, core.SyncOptions{})
		return err
	}); err != nil {
		return err
	}
	for _, s := range []*core.Schedule{list, syn} {
		if err = timed("check.verify", &rs.verify, func() error { return check.Err(check.Verify(s)) }); err != nil {
			return err
		}
	}
	if err = timed("simulate.list", &rs.simList, func() (err error) {
		lt, err = sim.Time(list, opt)
		return err
	}); err != nil {
		return err
	}
	if err = timed("simulate.sync", &rs.simSync, func() (err error) {
		st, err = sim.Time(syn, opt)
		return err
	}); err != nil {
		return err
	}
	return timed("check.verify_timing", &rs.timing, func() error {
		return check.Err(check.VerifyTiming(syn, st.Total, c.n))
	})
}

// perLayer reports the per-layer metrics of a traced window. Stage times
// and counts are registry deltas (exact Count/Total sums); the remainders
// no stage covers are reported as the self time of the layer around them.
func perLayer(rep *report, b *bench, win window, rs replayStats, setupS float64) {
	ops := float64(win.ops)
	stage := func(name string) (calls float64, total time.Duration) {
		a, z := win.before.Stage(name), win.after.Stage(name)
		return float64(z.Count - a.Count), z.Total - a.Total
	}
	perOp := func(d time.Duration) float64 { return us(d) / ops }
	var stagesTotal time.Duration
	for _, st := range win.after.Stages {
		stagesTotal += st.Total - win.before.Stage(st.Stage).Total
	}

	for _, name := range compileStages {
		calls, total := stage(name)
		rep.add(name+".us_per_op", "us", perOp(total), true)
		rep.add(name+".calls_per_op", "count", calls/ops, true)
	}
	rep.add("codegen.instrs_per_loop", "instrs", ratio(float64(rs.instrs), float64(rs.loops)), true)
	rep.add("graph.sync_arcs_per_loop", "arcs", ratio(float64(rs.arcs), float64(rs.loops)), true)
	exact := win.after.DepExact - win.before.DepExact
	indep := win.after.DepIndependent - win.before.DepIndependent
	cons := win.after.DepConservative - win.before.DepConservative
	rep.add("analyze.conservative_ratio", "ratio", ratio(float64(cons), float64(exact+indep+cons)), true)

	cases := float64(rs.cases)
	calls, total := stage(pipeline.StageSchedule)
	rep.add("schedule.us_per_op", "us", perOp(total), true)
	rep.add("schedule.calls_per_op", "count", calls/ops, true)
	rep.add("schedule.list_us", "us", us(rs.list)/cases, true)
	rep.add("schedule.sync_us", "us", us(rs.sync)/cases, true)

	calls, total = stage(pipeline.StageVerify)
	rep.add("check.us_per_op", "us", perOp(total), true)
	rep.add("check.calls_per_op", "count", calls/ops, true)
	rep.add("check.verify_us", "us", us(rs.verify)/(2*cases), true)
	rep.add("check.verify_timing_us", "us", us(rs.timing)/cases, true)
	rep.add("check.rejected", "count", float64(win.after.Rejected-win.before.Rejected), true)

	// Each simulate stage times the list and the sync schedule over the
	// request's trip count; every workload either shares one trip count or
	// simulates every request fresh, so the mean trip count is exact.
	simCalls, simTotal := stage(pipeline.StageSimulate)
	rep.add("simulate.us_per_op", "us", perOp(simTotal), true)
	rep.add("simulate.calls_per_op", "count", simCalls/ops, true)
	rep.add("simulate.iterations_per_op", "iterations", simCalls/ops*2*ratio(float64(win.trips), float64(win.loops)), true)
	rep.add("simulate.list_us", "us", us(rs.simList)/cases, true)
	rep.add("simulate.sync_us", "us", us(rs.simSync)/cases, true)
	rep.add("simulate.cycles_per_op", "cycles", float64(win.cycles)/ops, true)

	// Busy time: batch ops occupy every worker for their whole latency; a
	// serve op occupies its client's connection and handler.
	var sumLat time.Duration
	for _, op := range win.done {
		sumLat += op.lat
	}
	busy := sumLat
	if !b.w.serve {
		busy *= time.Duration(b.cfg.procs)
	}
	rep.add("simulate.busy_share", "ratio", ratio(float64(simTotal), float64(busy)), true)

	hits := win.after.CacheHits - win.before.CacheHits
	misses := win.after.CacheMisses - win.before.CacheMisses
	rep.add("cache.hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)), true)
	rep.add("cache.evictions_per_op", "count", float64(win.after.CacheEvictions-win.before.CacheEvictions)/ops, true)

	rep.add("disk.load_us_per_entry", "us", ratio(setupS*1e6, float64(b.env.loaded)), true)
	rep.add("disk.entries_loaded", "entries", float64(b.env.loaded), true)

	var serverSelf, httpTime, pipelineSelf time.Duration
	if b.w.serve {
		serverSelf = win.handler - stagesTotal
		httpTime = sumLat - win.handler
	} else {
		pipelineSelf = busy - stagesTotal
	}
	rep.add("server.self_us_per_op", "us", perOp(serverSelf), true)
	rep.add("server.coalesced_ratio", "ratio", float64(win.coalesced)/ops, true)
	rep.add("http.us_per_op", "us", perOp(httpTime), true)
	rep.add("pipeline.self_us_per_op", "us", perOp(pipelineSelf), true)
	rep.add("pipeline.fallbacks", "count", float64(win.after.Fallbacks-win.before.Fallbacks), true)
	rep.add("pipeline.panics", "count", float64(win.after.Panics-win.before.Panics), true)
	rep.add("pipeline.timeouts", "count", float64(win.after.Timeouts-win.before.Timeouts), true)

	rep.add("runtime.gc_cpu_share", "ratio", ratio(win.gcCPU, win.cpu), true)
	rep.add("runtime.alloc_bytes_per_op", "bytes", float64(win.allocBytes)/ops, true)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
