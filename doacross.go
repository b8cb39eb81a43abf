// Package doacross reproduces Rong-Yuh Hwang's IPPS 1997 paper "An
// Efficient Technique of Instruction Scheduling on a Superscalar-Based
// Multiprocessor": synchronization-aware instruction scheduling for DOACROSS
// loops executing one iteration per superscalar processor.
//
// The package is a facade over the full pipeline:
//
//	source loop ─lang→ AST ─dep→ dependences ─syncop→ DOACROSS+Send/Wait
//	  ─tac→ DLX-style code ─dfg→ data-flow graph (Sig/Wat/Sigwat partition)
//	  ─core→ schedule (list baseline or the paper's technique)
//	  ─sim→ parallel execution time on n processors
//
// Quick start:
//
//	prog, err := doacross.Compile(`
//	DO I = 1, N
//	  S1: B[I] = A[I-2] + E[I+1]
//	  S2: G[I-3] = A[I-1] * E[I+2]
//	  S3: A[I] = B[I] + C[I+3]
//	ENDDO`)
//	m := doacross.Machine4Issue(1)
//	list, _ := prog.ScheduleList(m)
//	sync, _ := prog.ScheduleSync(m)
//	fmt.Println(doacross.Simulate(list, 100).Total) // paper's T_a-4-1
//	fmt.Println(doacross.Simulate(sync, 100).Total) // paper's T_b-4-1
package doacross

import (
	"context"
	"fmt"
	"strings"

	"doacross/internal/check"
	"doacross/internal/core"
	"doacross/internal/dep"
	"doacross/internal/dfg"
	"doacross/internal/diag"
	"doacross/internal/dlx"
	"doacross/internal/dlxisa"
	"doacross/internal/exact"
	"doacross/internal/lang"
	"doacross/internal/migrate"
	"doacross/internal/model"
	"doacross/internal/passes"
	"doacross/internal/sim"
	"doacross/internal/syncop"
	"doacross/internal/tac"
)

// Re-exported pipeline types. The implementation lives in internal packages;
// these aliases are the public names.
type (
	// Loop is a parsed DO/DOACROSS loop.
	Loop = lang.Loop
	// Store is the shared-memory state simulations execute against.
	Store = lang.Store
	// Machine is a superscalar processor configuration.
	Machine = dlx.Config
	// Schedule is a cycle-by-cycle issue assignment for one iteration.
	Schedule = core.Schedule
	// PairSpan describes one synchronization pair's placement.
	PairSpan = core.PairSpan
	// Timing is a simulation result.
	Timing = sim.Timing
	// SimOptions configures a simulation run.
	SimOptions = sim.Options
	// SimTracer is the opt-in cycle-accurate machine trace with stall-cause
	// attribution (set SimOptions.Tracer, or use SimulateTraced).
	SimTracer = sim.Tracer
	// MachineUtilization is the per-FU/per-cycle utilization report derived
	// from a SimTracer.
	MachineUtilization = sim.Utilization
	// Dependence is one data dependence of a loop.
	Dependence = dep.Dependence
	// SyncOptions holds ablation knobs for the new scheduler.
	SyncOptions = core.SyncOptions
	// Scheduler is the pluggable scheduling-backend seam: the paper's
	// heuristic, the list baselines, the never-degrades Best pick and the
	// exact branch-and-bound solver all implement it.
	Scheduler = core.Scheduler
	// ScheduleOutcome is a backend's schedule plus its optimality evidence
	// (objective value, proven lower bound, search-node count, diagnostic).
	ScheduleOutcome = core.Outcome
	// ExactOptions configures the exact branch-and-bound backend: the
	// objective's trip count and the search's node/time budget.
	ExactOptions = exact.Options
	// CompileOptions selects and configures the compilation passes: the
	// optional unroll/migrate/if-conversion passes, flow-only
	// synchronization, artifact dumps, and a pass tracer.
	CompileOptions = passes.Options
	// PassTrace records a compilation's per-pass timings, dumped artifacts
	// and diagnostics.
	PassTrace = passes.Trace
	// PassTiming is one pass execution time.
	PassTiming = passes.Timing
	// Diagnostic is a structured compile error or warning carrying its
	// source line:col and statement label.
	Diagnostic = diag.Diagnostic
	// Diagnostics is an ordered diagnostic collection.
	Diagnostics = diag.List
	// SourcePos is a source position (line, column).
	SourcePos = diag.Pos
	// Severity grades a Diagnostic: SeverityError fails the compilation (or
	// the lint run), SeverityWarning is advisory.
	Severity = diag.Severity
)

// Diagnostic severities.
const (
	SeverityError   = diag.Error
	SeverityWarning = diag.Warning
)

// Machine constructors mirroring the paper's configurations.

// NewMachine returns the paper's machine with the given issue width and
// function units of each class (multiplier 3 cycles, divider 6, others 1).
func NewMachine(issue, fuCount int) Machine { return dlx.Standard(issue, fuCount) }

// Machine2Issue returns the 2-issue configuration with fuCount units each.
func Machine2Issue(fuCount int) Machine { return dlx.Standard(2, fuCount) }

// Machine4Issue returns the 4-issue configuration with fuCount units each.
func Machine4Issue(fuCount int) Machine { return dlx.Standard(4, fuCount) }

// UniformMachine returns a machine with single-cycle latencies everywhere
// (the paper's Fig. 4 setting).
func UniformMachine(issue, fuCount int) Machine { return dlx.Uniform(issue, fuCount) }

// PaperMachines returns the four Table 2 configurations.
func PaperMachines() []Machine { return dlx.PaperConfigs() }

// Program is a fully analyzed and compiled DOACROSS loop.
type Program struct {
	// Loop is the parsed source loop (after any transforming passes).
	Loop *Loop
	// Analysis holds its data dependences.
	Analysis *dep.Analysis
	// Sync is the DOACROSS form with Send_Signal/Wait_Signal inserted.
	Sync *syncop.Loop
	// Code is the compiled three-address body of one iteration.
	Code *tac.Program
	// Graph is the synchronization-augmented data-flow graph.
	Graph *dfg.Graph
	// Trace is the pass manager's record of this compilation: per-pass
	// timings, the artifacts requested via CompileOptions.Dump, and all
	// collected diagnostics (e.g. conservative-dependence warnings with
	// source positions).
	Trace *PassTrace
	// Diags are the compile diagnostics (warnings for a successful
	// compilation).
	Diags Diagnostics
}

// Parse parses loop source without compiling it.
func Parse(src string) (*Loop, error) { return lang.Parse(src) }

// Compile parses and compiles a loop through the default pass pipeline.
func Compile(src string) (*Program, error) {
	return CompileWith(src, CompileOptions{})
}

// CompileLoop compiles an already parsed loop through the default pass
// pipeline.
func CompileLoop(loop *Loop) (*Program, error) {
	return CompileLoopWith(loop, CompileOptions{})
}

// CompileWith parses and compiles a loop through a pass pipeline configured
// by opt: optional unroll/migrate passes, if-conversion control, flow-only
// synchronization, and per-pass artifact dumps (Program.Trace).
func CompileWith(src string, opt CompileOptions) (*Program, error) {
	return CompileWithContext(context.Background(), src, opt)
}

// CompileWithContext is CompileWith under a cancellation context, checked
// between compilation passes: a compilation caught by a deadline stops at
// the next pass boundary and reports the context's error.
func CompileWithContext(ctx context.Context, src string, opt CompileOptions) (*Program, error) {
	pctx, err := passes.CompileCtx(ctx, src, opt)
	if err != nil {
		return nil, err
	}
	return programFrom(pctx), nil
}

// CompileLoopWith is CompileWith over an already parsed loop. Transforming
// passes do not modify the input loop; Program.Loop holds the rewritten
// copy.
func CompileLoopWith(loop *Loop, opt CompileOptions) (*Program, error) {
	return CompileLoopWithContext(context.Background(), loop, opt)
}

// CompileLoopWithContext is CompileLoopWith under a cancellation context.
func CompileLoopWithContext(ctx context.Context, loop *Loop, opt CompileOptions) (*Program, error) {
	pctx, err := passes.CompileLoopCtx(ctx, loop, opt)
	if err != nil {
		return nil, err
	}
	return programFrom(pctx), nil
}

// programFrom maps a completed compile context onto the facade Program.
func programFrom(ctx *passes.Context) *Program {
	return &Program{
		Loop: ctx.Loop, Analysis: ctx.Analysis, Sync: ctx.Sync,
		Code: ctx.Code, Graph: ctx.Graph, Trace: ctx.Trace, Diags: ctx.Diags,
	}
}

// CompileBest compiles the loop twice — once with the precise dependence
// analysis, once with the conservative baseline webs (the seed analyzer's
// verdicts) — schedules both with ScheduleBest on m, and keeps whichever
// compilation simulates faster over n iterations, preferring the precise
// analysis on ties. This is the analysis-level never-degrades guard,
// mirroring ScheduleBest's backend-level one: the precise analysis provably
// never admits an invalid schedule (every refinement carries machine-checked
// evidence), but the scheduling heuristic is not monotone in the constraint
// set, so on rare loops the conservative webs happen to steer it better.
// The returned bool reports whether the precise compilation was kept.
func CompileBest(src string, m Machine, n int, opt CompileOptions) (*Program, bool, error) {
	opt.BaselineDeps = false
	precise, err := CompileWith(src, opt)
	if err != nil {
		return nil, false, err
	}
	opt.BaselineDeps = true
	baseline, err := CompileWith(src, opt)
	if err != nil {
		return nil, false, err
	}
	ps, err := precise.ScheduleBest(m)
	if err != nil {
		return nil, false, err
	}
	bs, err := baseline.ScheduleBest(m)
	if err != nil {
		return nil, false, err
	}
	if Simulate(bs, n).Total < Simulate(ps, n).Total {
		return baseline, false, nil
	}
	return precise, true, nil
}

// MustCompile is Compile panicking on error, for tests and examples.
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// IsDoall reports whether the loop has no loop-carried dependences.
func (p *Program) IsDoall() bool { return p.Analysis.IsDoall() }

// Dependences returns the loop-carried dependences requiring
// synchronization.
func (p *Program) Dependences() []Dependence { return p.Analysis.Carried() }

// CountLexical returns how many carried dependences are lexically forward
// (LFD) and backward (LBD).
func (p *Program) CountLexical() (lfd, lbd int) { return p.Analysis.CountLexical() }

// DoacrossSource renders the synchronized loop (the paper's Fig. 1(b) view).
func (p *Program) DoacrossSource() string { return p.Sync.String() }

// Listing renders the compiled three-address code (the Fig. 2 view).
func (p *Program) Listing() string { return p.Code.Listing() }

// GraphInfo summarizes the data-flow graph partition (the Fig. 3 view).
func (p *Program) GraphInfo() string { return p.Graph.SyncInfo() }

// ScheduleList builds the baseline list schedule with critical-path
// priority (traditional list scheduling).
func (p *Program) ScheduleList(m Machine) (*Schedule, error) {
	return core.List(p.Graph, m, core.CriticalPath)
}

// ScheduleListProgramOrder builds the baseline with program-order priority
// (the construction of the paper's Fig. 4(a)).
func (p *Program) ScheduleListProgramOrder(m Machine) (*Schedule, error) {
	return core.List(p.Graph, m, core.ProgramOrder)
}

// ScheduleSync builds the paper's synchronization-aware schedule.
func (p *Program) ScheduleSync(m Machine) (*Schedule, error) {
	return core.Sync(p.Graph, m)
}

// ScheduleSyncWithOptions builds the new schedule with ablation knobs.
func (p *Program) ScheduleSyncWithOptions(m Machine, opt SyncOptions) (*Schedule, error) {
	return core.SyncWithOptions(p.Graph, m, opt)
}

// ScheduleBest builds both schedules and returns the better one, realizing
// the paper's never-degrades guarantee.
func (p *Program) ScheduleBest(m Machine) (*Schedule, error) {
	return core.Best(p.Graph, m)
}

// Scratch is reusable scheduler working state: every buffer the heuristic
// schedulers need, grown once and recycled, so steady-state scheduling with a
// warm Scratch allocates nothing. It also keeps what it derived from the last
// program's graph (priority orders, critical paths, base arcs), keyed by the
// graph, the latencies and the sync options, so scheduling one program on
// several machines derives them once. A Scratch is not safe for concurrent
// use — give each worker its own.
type Scratch = core.Scratch

// NewScratch returns fresh scheduler scratch state for ScheduleWith.
func NewScratch() *Scratch { return core.NewScratch() }

// ScheduleWith builds a schedule with the named heuristic backend ("sync" —
// also the empty name — "list", "order" or "best") into sc's reusable
// buffers. The returned schedule is BORROWED: its storage is recycled by the
// next ScheduleWith call on the same Scratch. Clone it to keep it. Use this
// in steady-state loops (services, sweeps) where Schedule's per-call
// allocation shows up; the exact backend is excluded because its search
// state dwarfs the schedule allocation.
func (p *Program) ScheduleWith(backend string, m Machine, sc *Scratch) (*Schedule, error) {
	switch backend {
	case "", "sync":
		return sc.Sync(p.Graph, m)
	case "list":
		return sc.List(p.Graph, m, core.CriticalPath)
	case "order":
		return sc.List(p.Graph, m, core.ProgramOrder)
	case "best":
		return sc.Best(p.Graph, m)
	}
	return nil, fmt.Errorf("doacross: unknown scratch backend %q (want sync, list, order or best)", backend)
}

// BackendNames lists the recognized scheduling backend names ("sync" the
// paper's heuristic, "list" and "order" the baselines, "best" the
// never-degrades pick, "exact" the branch-and-bound solver).
func BackendNames() []string { return passes.BackendNames() }

// Backend resolves a scheduling backend by name with default knobs; the
// empty name is "sync". Unknown names fail with the accepted list.
func Backend(name string) (Scheduler, error) {
	return passes.Backend(name, passes.BackendConfig{})
}

// Schedule builds a schedule through the named backend. Unlike the
// Schedule* shorthands it returns the backend's full outcome, including any
// optimality evidence the exact backend proves.
func (p *Program) Schedule(backend string, m Machine) (*ScheduleOutcome, error) {
	sch, err := Backend(backend)
	if err != nil {
		return nil, err
	}
	return sch.Schedule(p.Graph, m)
}

// ScheduleExact runs the branch-and-bound solver (internal/exact): it
// minimizes the paper's T = (n/d)(i-j) + l directly and returns the schedule
// with its proof — Optimal when the search completed, otherwise the best
// schedule found plus a proven lower bound and a budget diagnostic.
func (p *Program) ScheduleExact(m Machine, opt ExactOptions) (*ScheduleOutcome, error) {
	return exact.Backend{Opt: opt}.Schedule(p.Graph, m)
}

// Simulate computes the parallel execution time of n iterations on n
// processors (the paper's setting) using the recurrence simulator.
func Simulate(s *Schedule, n int) Timing {
	return sim.MustTime(s, sim.Options{Lo: 1, Hi: n})
}

// SimulateOptions computes the parallel execution time with explicit bounds
// and processor count.
func SimulateOptions(s *Schedule, opt SimOptions) (Timing, error) {
	return sim.Time(s, opt)
}

// Execute runs the detailed simulator against the store (mutating it) and
// returns the timing. The store must define the loop bounds' scalars (e.g.
// N); use SeedStore for synthetic data.
func Execute(s *Schedule, st *Store, opt SimOptions) (Timing, error) {
	return sim.Run(s, st, opt)
}

// SimulateTraced simulates with a cycle-accurate tracer attached, verifies
// that the stall-cause attribution accounts for every non-issue cycle
// bit-exactly against the timing counters, and returns both. Reuses
// opt.Tracer when the caller supplies one.
func SimulateTraced(s *Schedule, opt SimOptions) (Timing, *SimTracer, error) {
	tr := opt.Tracer
	if tr == nil {
		tr = &SimTracer{}
		opt.Tracer = tr
	}
	tm, err := sim.Time(s, opt)
	if err != nil {
		return tm, nil, err
	}
	if err := tr.Check(tm); err != nil {
		return tm, nil, err
	}
	return tm, tr, nil
}

// SeedStore builds a deterministic pseudo-random store covering the loop's
// arrays for n iterations.
func (p *Program) SeedStore(n int, seed uint64) *Store {
	st := p.Loop.SeedStore(n, marginFor(p.Loop, n), seed)
	return st
}

// marginFor picks a safe subscript margin from the loop's affine offsets.
// It considers every array reference of each statement — guard condition,
// LHS and RHS — via the same helper the interpreter uses, so conditional
// loops cannot index outside the seeded margin.
func marginFor(l *Loop, n int) int {
	margin := 8
	for _, st := range l.Body {
		for _, r := range lang.StmtArrayRefs(st) {
			if _, off, ok := lang.AffineIndex(r.Index, l.Var); ok {
				if off < 0 {
					off = -off
				}
				if off+2 > margin {
					margin = off + 2
				}
			}
		}
	}
	return margin
}

// RunSequential executes the loop sequentially (reference semantics).
func (p *Program) RunSequential(st *Store) error { return p.Loop.Run(st) }

// Predict applies the paper's LBD loop theorem to a schedule.
func Predict(s *Schedule, n int) int { return model.Predict(s, n) }

// Verify checks a schedule with the independent static verifier
// (internal/check): it re-derives the dependence edges from the compiled
// code attached to the schedule — deliberately sharing no code with the
// data-flow graph or the schedulers — and re-checks intra-iteration
// dependence preservation, the paper's synchronization conditions 1 and 2,
// issue-width and function-unit feasibility, cross-iteration deadlock
// freedom and the LBD accounting. An empty list means the schedule passed;
// findings of Error severity mean it must not be executed.
//
// This is the same checker the batch pipeline applies to every schedule
// before serving it. CompileOptions.Verify additionally runs it (plus the
// linter) as a compilation pass.
func Verify(s *Schedule) Diagnostics { return check.Verify(s) }

// VerifyTiming audits a simulated execution time for a schedule against the
// analytical model: total must cover at least one full iteration and at
// least the LBD loop theorem's closed-form bound T = (n/d)(i-j) + l.
func VerifyTiming(s *Schedule, total, n int) Diagnostics {
	return check.VerifyTiming(s, total, n)
}

// Lint runs the DOACROSS synchronization linter over a parsed loop's
// explicit Send_Signal/Wait_Signal statements: statically deadlocking
// waits, dead or duplicate sends, mismatched or non-positive distances,
// self-synchronization, and redundant waits subsumed by transitive
// synchronization. Findings carry source positions.
func Lint(loop *Loop) Diagnostics { return check.Lint(loop) }

// Lint runs the synchronization linter over the program: the explicit sync
// statements of its source loop and the compiler-inserted synchronization
// of its DOACROSS form.
func (p *Program) Lint() Diagnostics {
	return append(check.Lint(p.Loop), check.LintSync(p.Sync)...)
}

// Speedup returns the Table 3 improvement percentage between two times.
func Speedup(ta, tb int) float64 { return model.Speedup(ta, tb) }

// Compare schedules a program both ways on a machine and reports the paper's
// headline numbers for n iterations.
type Comparison struct {
	Machine  string
	N        int
	ListTime int
	SyncTime int
	// Improvement is the Table 3 percentage.
	Improvement float64
	// ListLBD and SyncLBD count remaining lexically backward pairs.
	ListLBD, SyncLBD int
	// List and Sync are the two schedules. On the aggregate returned by
	// CompareFile they are nil (a summed comparison has no single
	// schedule); the per-loop schedules live in PerLoop.
	List, Sync *Schedule
	// PerLoop holds the individual loop comparisons behind an aggregate
	// built by CompareFile, in source order. Nil on single-loop
	// comparisons.
	PerLoop []Comparison
}

// Compare runs the full experiment for one loop on one machine.
func (p *Program) Compare(m Machine, n int) (Comparison, error) {
	list, err := p.ScheduleList(m)
	if err != nil {
		return Comparison{}, err
	}
	syn, err := p.ScheduleSync(m)
	if err != nil {
		return Comparison{}, err
	}
	lt, err := sim.Time(list, sim.Options{Lo: 1, Hi: n})
	if err != nil {
		return Comparison{}, err
	}
	st, err := sim.Time(syn, sim.Options{Lo: 1, Hi: n})
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{
		Machine:     m.Name,
		N:           n,
		ListTime:    lt.Total,
		SyncTime:    st.Total,
		Improvement: model.Speedup(lt.Total, st.Total),
		ListLBD:     list.NumLBD(),
		SyncLBD:     syn.NumLBD(),
		List:        list,
		Sync:        syn,
	}, nil
}

// Migration is the result of source-level synchronization migration.
type Migration = migrate.Result

// Migrate applies the cited statement-reordering baseline (synchronization
// migration) to the program's loop, returning the reordered loop and
// before/after LBD counts. Compile the result to measure its effect:
//
//	mig, _ := prog.Migrate()
//	prog2, _ := doacross.CompileLoop(mig.Loop)
func (p *Program) Migrate() (*Migration, error) {
	return migrate.Migrate(p.Analysis)
}

// SourceFile is a parsed multi-loop source file.
type SourceFile = lang.File

// ParseSource parses a source file containing one or more loops.
func ParseSource(src string) (*SourceFile, error) { return lang.ParseFile(src) }

// CompileFile parses and compiles every loop of a multi-loop source file.
func CompileFile(src string) ([]*Program, error) {
	f, err := lang.ParseFile(src)
	if err != nil {
		return nil, err
	}
	out := make([]*Program, 0, len(f.Loops))
	for i, l := range f.Loops {
		p, err := CompileLoop(l)
		if err != nil {
			return nil, fmt.Errorf("loop %d: %w", i+1, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// CompareFile runs the full list-vs-new experiment over every loop of a
// source file and returns the summed times (the per-benchmark rows of the
// paper's Table 2 are exactly this, applied to each extracted suite). The
// aggregate's List/Sync schedules are nil; the per-loop breakdown — each
// loop's times, LBD counts and schedules — is attached as PerLoop.
func CompareFile(src string, m Machine, n int) (Comparison, error) {
	progs, err := CompileFile(src)
	if err != nil {
		return Comparison{}, err
	}
	total := Comparison{Machine: m.Name, N: n, PerLoop: make([]Comparison, 0, len(progs))}
	for _, p := range progs {
		c, err := p.Compare(m, n)
		if err != nil {
			return Comparison{}, err
		}
		total.ListTime += c.ListTime
		total.SyncTime += c.SyncTime
		total.ListLBD += c.ListLBD
		total.SyncLBD += c.SyncLBD
		total.PerLoop = append(total.PerLoop, c)
	}
	total.Improvement = model.Speedup(total.ListTime, total.SyncTime)
	return total, nil
}

// Unroll unrolls the program's loop by factor k and recompiles it, running
// the pass pipeline with the unroll pass inserted. One Send/Wait pair then
// covers k original iterations, amortizing synchronization overhead. The
// unrolled loop is equivalent to the original when the trip count divides
// by k.
func (p *Program) Unroll(k int) (*Program, error) {
	if k < 1 {
		return nil, fmt.Errorf("unroll: factor %d < 1", k)
	}
	return CompileLoopWith(p.Loop, CompileOptions{Unroll: k})
}

// MachineCode is an assembled DLX-like binary of one iteration body.
type MachineCode = dlxisa.Program

// Assemble lowers the program's three-address code to DLX-like machine code
// (register allocation, constant pool, binary encoding). The generated code
// may address array elements in [minIdx, maxIdx].
func (p *Program) Assemble(minIdx, maxIdx int) (*MachineCode, error) {
	return dlxisa.Assemble(p.Code, minIdx, maxIdx)
}

// String renders the comparison.
func (c Comparison) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "machine %s, n=%d:\n", c.Machine, c.N)
	fmt.Fprintf(&sb, "  list scheduling: %6d cycles (%d LBD pairs)\n", c.ListTime, c.ListLBD)
	fmt.Fprintf(&sb, "  new  scheduling: %6d cycles (%d LBD pairs)\n", c.SyncTime, c.SyncLBD)
	fmt.Fprintf(&sb, "  improvement:     %6.2f%%\n", c.Improvement)
	return sb.String()
}
