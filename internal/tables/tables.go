// Package tables regenerates the paper's evaluation artifacts: Table 1
// (benchmark characteristics), Table 2 (parallel execution time of list vs.
// new scheduling over four machine configurations) and Table 3 (improvement
// percentages), using the synthetic Perfect suites, the two schedulers, and
// the recurrence simulator.
package tables

import (
	"fmt"
	"strings"

	"doacross/internal/core"
	"doacross/internal/dep"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/model"
	"doacross/internal/passes"
	"doacross/internal/perfect"
	"doacross/internal/pipeline"
	"doacross/internal/syncop"
	"doacross/internal/tac"
)

// NumConfigs is the number of machine configurations in Table 2.
const NumConfigs = 4

// ConfigNames lists the Table 2 column groups in order.
func ConfigNames() []string {
	names := make([]string, 0, NumConfigs)
	for _, c := range dlx.PaperConfigs() {
		names = append(names, c.Name)
	}
	return names
}

// LoopResult is the measurement of one DOACROSS loop under one configuration.
type LoopResult struct {
	Suite    string
	Index    int
	Template perfect.Template
	Config   string
	// Ta and Tb are the list-scheduling and new-scheduling parallel times
	// (the paper's T_a-y-z and T_b-y-z) for N iterations on N processors.
	Ta, Tb int
	// LBDa/LBDb count remaining LBD pairs under each scheduler.
	LBDa, LBDb int
	// LenA/LenB are single-iteration schedule lengths.
	LenA, LenB int
	// LiveA/LiveB are peak register pressures (max simultaneously live
	// temps) — the scheduling-vs-registers trade the paper's reference [7]
	// studies.
	LiveA, LiveB int
}

// Row2 is one benchmark's Table 2 row: totals per configuration.
type Row2 struct {
	Name string
	// Ta[k] and Tb[k] are the benchmark's summed parallel times under
	// configuration k (order of dlx.PaperConfigs).
	Ta, Tb [NumConfigs]int
}

// Row3 is one benchmark's Table 3 row: improvement percentages.
type Row3 struct {
	Name    string
	Percent [NumConfigs]float64
}

// Result bundles everything the experiment harness produces.
type Result struct {
	Suites []*perfect.Suite
	Table1 []perfect.Characteristics
	Table2 []Row2
	Total2 Row2
	Table3 []Row3
	Total3 Row3
	// Summary2Issue and Summary4Issue are the paper's closing statistics:
	// mean total improvement over the two FU variants of each issue width.
	Summary2Issue, Summary4Issue float64
	// Loops holds per-loop detail for drill-down reports.
	Loops []LoopResult
	// Failures records loops that failed in the batch pipeline (one entry
	// per failed loop, in request order) when the harness was asked to keep
	// going; their measurements are missing from the aggregates.
	Failures []LoopFailure
}

// LoopFailure is one loop the batch pipeline could not measure.
type LoopFailure struct {
	// Name is the pipeline request name ("<suite> loop <i>").
	Name string
	// Err is the per-loop pipeline error.
	Err error
}

// compiled caches one loop's analysis pipeline output.
type compiled struct {
	prog *tac.Program
	g    *dfg.Graph
}

func compileLoop(l perfect.Loop) (compiled, error) {
	a := dep.Analyze(l.AST)
	prog, err := tac.Generate(syncop.Insert(a, syncop.Options{}))
	if err != nil {
		return compiled{}, err
	}
	g, err := dfg.Build(prog, a)
	if err != nil {
		return compiled{}, err
	}
	return compiled{prog: prog, g: g}, nil
}

// Run generates the suites and produces all tables with the default
// baseline — critical-path list scheduling, the textbook "traditional list
// scheduling" the paper compares against. The trip count comes from each
// suite's profile (the paper uses 100 iterations, one processor each).
func Run() (*Result, error) {
	suites, err := perfect.Suites()
	if err != nil {
		return nil, err
	}
	return RunOn(suites, core.CriticalPath)
}

// RunOn produces the tables for the given suites, using the given list-
// scheduling priority as the paper's "traditional list scheduling" baseline.
// It runs the batch pipeline with a single worker and no cache, so it is
// bit-identical to (and a thin wrapper over) RunParallel.
func RunOn(suites []*perfect.Suite, baseline core.ListPriority) (*Result, error) {
	return RunParallel(suites, baseline, 1, nil, nil)
}

// RunParallel produces the tables by fanning every (loop, configuration)
// scheduling problem out over the batch pipeline with the given worker
// count. An optional shared cache skips rescheduling repeated loop shapes
// (the generated suites contain many); an optional shared metrics registry
// aggregates stage latencies and cache traffic across calls (pass nil for a
// private one — the numbers still reach the caller via pipeline stats when
// a registry is supplied).
func RunParallel(suites []*perfect.Suite, baseline core.ListPriority, workers int, cache *pipeline.Cache, metrics *pipeline.Metrics) (*Result, error) {
	res, err := RunParallelWith(suites, baseline, pipeline.Options{
		Workers: workers,
		Cache:   cache,
		Metrics: metrics,
	})
	if err != nil {
		return nil, err
	}
	if len(res.Failures) > 0 {
		f := res.Failures[0]
		return nil, fmt.Errorf("tables: %s: %w", f.Name, f.Err)
	}
	return res, nil
}

// RunParallelWith produces the tables through the batch pipeline configured
// by opt (Machines and Baseline are overridden with the paper's four
// configurations and the given baseline; Deadline/RequestTimeout and the
// other robustness knobs pass through). Unlike RunParallel it keeps going
// when individual loops fail: failed loops are skipped from the aggregates
// and recorded in Result.Failures so callers can report them and decide the
// exit status themselves.
func RunParallelWith(suites []*perfect.Suite, baseline core.ListPriority, opt pipeline.Options) (*Result, error) {
	res := &Result{Suites: suites}
	configs := dlx.PaperConfigs()

	// One request per DOACROSS loop; each loop is scheduled on all four
	// configurations by the pipeline. Requests carry the suite's trip count.
	type ref struct {
		suite int
		index int
		tpl   perfect.Template
	}
	var reqs []pipeline.Request
	var refs []ref
	// batchOf[si][i] is the request index of suite si's loop i, -1 for the
	// DOALL-template loops the batch does not schedule.
	batchOf := make([][]int, len(suites))
	for si, s := range suites {
		batchOf[si] = make([]int, len(s.Loops))
		li := 0 // index among the suite's DOACROSS loops
		for i, l := range s.Loops {
			batchOf[si][i] = -1
			if l.Template == perfect.Doall {
				continue
			}
			batchOf[si][i] = len(reqs)
			reqs = append(reqs, pipeline.Request{
				Name: fmt.Sprintf("%s loop %d", s.Profile.Name, li),
				Loop: l.AST,
				N:    s.Profile.N,
			})
			refs = append(refs, ref{suite: si, index: li, tpl: l.Template})
			li++
		}
	}
	opt.Machines = configs
	opt.Baseline = baseline
	batch, err := pipeline.Run(reqs, opt)
	if err != nil {
		return nil, fmt.Errorf("tables: %w", err)
	}

	rows := make([]Row2, len(suites))
	at := make([]int, len(batch.Loops)) // request i's first row in res.Loops, -1: failed
	for i, lr := range batch.Loops {
		r := refs[i]
		at[i] = -1
		if lr.Err != nil {
			res.Failures = append(res.Failures, LoopFailure{Name: lr.Name, Err: lr.Err})
			continue
		}
		at[i] = len(res.Loops)
		row := &rows[r.suite]
		for k, mr := range lr.Machines {
			row.Ta[k] += mr.ListTime
			row.Tb[k] += mr.SyncTime
			res.Loops = append(res.Loops, LoopResult{
				Suite: suites[r.suite].Profile.Name, Index: r.index, Template: r.tpl,
				Config: mr.Machine, Ta: mr.ListTime, Tb: mr.SyncTime,
				LBDa: mr.ListLBD, LBDb: mr.SyncLBD,
				LenA: mr.List.Length(), LenB: mr.Sync.Length(),
			})
		}
	}
	// The per-loop post-processing runs on the batch's workers, each task
	// writing only its own rows: first every suite's Table 1 row (the
	// longest tasks), then each loop's register pressure, eight MaxLive
	// sweeps (list and sync on every machine). Table 1 counts what the
	// default compilation produces; unless the batch compiled differently,
	// its analyses and programs stand in for recompiling every DOACROSS
	// loop, and only the DOALL loops are analyzed here.
	reuse := table1Compiles(opt.Compile)
	res.Table1 = make([]perfect.Characteristics, len(suites))
	err = pipeline.FanOut(opt.Workers, len(suites)+len(batch.Loops), func(t int) error {
		if t < len(suites) {
			ch, err := suites[t].CharacteristicsWith(func(i int) (*dep.Analysis, *tac.Program) {
				if b := batchOf[t][i]; reuse && b >= 0 {
					return batch.Loops[b].Analysis, batch.Loops[b].Prog
				}
				return nil, nil
			})
			res.Table1[t] = ch
			return err
		}
		i := t - len(suites)
		if at[i] < 0 {
			return nil
		}
		for k, mr := range batch.Loops[i].Machines {
			lr := &res.Loops[at[i]+k]
			lr.LiveA, lr.LiveB = mr.List.MaxLive(), mr.Sync.MaxLive()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si, s := range suites {
		row := rows[si]
		row.Name = s.Profile.Name
		res.Table2 = append(res.Table2, row)
		r3 := Row3{Name: s.Profile.Name}
		for k := range configs {
			r3.Percent[k] = model.Speedup(row.Ta[k], row.Tb[k])
		}
		res.Table3 = append(res.Table3, r3)
		for k := range configs {
			res.Total2.Ta[k] += row.Ta[k]
			res.Total2.Tb[k] += row.Tb[k]
		}
	}
	res.Total2.Name = "Total"
	res.Total3.Name = "Total"
	for k := 0; k < NumConfigs; k++ {
		res.Total3.Percent[k] = model.Speedup(res.Total2.Ta[k], res.Total2.Tb[k])
	}
	res.Summary2Issue = (res.Total3.Percent[0] + res.Total3.Percent[1]) / 2
	res.Summary4Issue = (res.Total3.Percent[2] + res.Total3.Percent[3]) / 2
	return res, nil
}

// table1Compiles reports whether compiling under o yields the analyses and
// programs Table 1 counts: no unrolling, no migration, synchronization of
// every carried dependence and the precise dependence analysis.
func table1Compiles(o passes.Options) bool {
	return (o.Unroll == 0 || o.Unroll == 1) && !o.Migrate && !o.FlowOnly && !o.BaselineDeps
}

// RenderTable1 formats Table 1.
func (r *Result) RenderTable1() string {
	var sb strings.Builder
	sb.WriteString("Table 1: Characteristics of the synthetic Perfect benchmarks\n")
	fmt.Fprintf(&sb, "%-28s", "Items \\ Benchmarks")
	total := perfect.Characteristics{Name: "TOTAL"}
	for _, c := range r.Table1 {
		fmt.Fprintf(&sb, "%9s", c.Name)
		total.SourceLines += c.SourceLines
		total.TotalLoops += c.TotalLoops
		total.DoallLoops += c.DoallLoops
		total.DLXLines += c.DLXLines
		total.LFD += c.LFD
		total.LBD += c.LBD
	}
	fmt.Fprintf(&sb, "%9s\n", "TOTAL")
	row := func(label string, get func(perfect.Characteristics) int) {
		fmt.Fprintf(&sb, "%-28s", label)
		for _, c := range r.Table1 {
			fmt.Fprintf(&sb, "%9d", get(c))
		}
		fmt.Fprintf(&sb, "%9d\n", get(total))
	}
	row("source lines", func(c perfect.Characteristics) int { return c.SourceLines })
	row("total no. of loops", func(c perfect.Characteristics) int { return c.TotalLoops })
	row("no. of Doall loops", func(c perfect.Characteristics) int { return c.DoallLoops })
	row("DLX instructions", func(c perfect.Characteristics) int { return c.DLXLines })
	row("total no. of LFD", func(c perfect.Characteristics) int { return c.LFD })
	row("total no. of LBD", func(c perfect.Characteristics) int { return c.LBD })
	return sb.String()
}

// RenderTable2 formats Table 2.
func (r *Result) RenderTable2() string {
	var sb strings.Builder
	sb.WriteString("Table 2: Parallel execution time (cycles, 100 iterations)\n")
	fmt.Fprintf(&sb, "%-10s", "Benchmark")
	for _, name := range ConfigNames() {
		fmt.Fprintf(&sb, "%22s", name)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-10s", "")
	for range ConfigNames() {
		fmt.Fprintf(&sb, "%11s%11s", "Ta", "Tb")
	}
	sb.WriteString("\n")
	writeRow := func(row Row2) {
		fmt.Fprintf(&sb, "%-10s", row.Name)
		for k := 0; k < NumConfigs; k++ {
			fmt.Fprintf(&sb, "%11d%11d", row.Ta[k], row.Tb[k])
		}
		sb.WriteString("\n")
	}
	for _, row := range r.Table2 {
		writeRow(row)
	}
	writeRow(r.Total2)
	return sb.String()
}

// RenderTable3 formats Table 3.
func (r *Result) RenderTable3() string {
	var sb strings.Builder
	sb.WriteString("Table 3: Improved percentage (list scheduling -> new scheduling)\n")
	fmt.Fprintf(&sb, "%-10s", "Benchmark")
	for _, name := range ConfigNames() {
		fmt.Fprintf(&sb, "%18s", name)
	}
	sb.WriteString("\n")
	writeRow := func(row Row3) {
		fmt.Fprintf(&sb, "%-10s", row.Name)
		for k := 0; k < NumConfigs; k++ {
			fmt.Fprintf(&sb, "%17.2f%%", row.Percent[k])
		}
		sb.WriteString("\n")
	}
	for _, row := range r.Table3 {
		writeRow(row)
	}
	writeRow(r.Total3)
	fmt.Fprintf(&sb, "\nSummary: mean total improvement %.2f%% (2-issue), %.2f%% (4-issue)\n",
		r.Summary2Issue, r.Summary4Issue)
	return sb.String()
}

// Observation1 checks §4.2 observation 1: the new scheduling's parallel time
// is much the same across all four configurations (the shortest possible
// synchronization path dominates, not issue width). Returns the worst
// relative spread of Tb across configs per benchmark.
func (r *Result) Observation1() (worstSpread float64, ok bool) {
	for _, row := range r.Table2 {
		mn, mx := row.Tb[0], row.Tb[0]
		for _, v := range row.Tb[1:] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		spread := float64(mx-mn) / float64(mx)
		if spread > worstSpread {
			worstSpread = spread
		}
	}
	// "Much the same": within 25 % across configurations.
	return worstSpread, worstSpread < 0.25
}

// Observation2 checks §4.2 observation 2: for list scheduling, some
// benchmarks run *slower* at 4-issue than at 2-issue with the same unit
// count (hoisted waits lengthen the synchronization path). Returns the
// benchmarks exhibiting the anomaly.
func (r *Result) Observation2() []string {
	var out []string
	for _, row := range r.Table2 {
		// Compare (2-issue,#FU=1) vs (4-issue,#FU=1) and (#FU=2) pairs.
		if row.Ta[0] < row.Ta[2] || row.Ta[1] < row.Ta[3] {
			out = append(out, row.Name)
		}
	}
	return out
}

// Render returns all three tables.
func (r *Result) Render() string {
	return r.RenderTable1() + "\n" + r.RenderTable2() + "\n" + r.RenderTable3()
}
