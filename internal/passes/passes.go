// Package passes is the pass manager of the compilation pipeline: an
// explicit, composable replacement for the hard-wired
// parse → analyze → sync-insert → codegen → graph sequence that used to be
// duplicated across doacross.CompileLoop, Unroll, Migrate, internal/pipeline
// and the cmd/ tools.
//
// A Pass is a named stage that advances a CompileContext; a Pipeline is an
// ordered list of passes built from Options, with the optional
// source-to-source transformations (unroll, migrate, if-conversion) inserted
// as first-class passes rather than recompile wrappers. The pipeline records
// per-pass wall-clock timings and rendered intermediate artifacts (the
// paper's Fig. 1(b)/2/3 views) into a Trace, reports them to an optional
// Tracer (internal/pipeline's metrics registry implements it), and collects
// structured diagnostics (internal/diag) with source positions from every
// stage.
//
// The default pipeline is byte-for-byte equivalent to the old hard-wired
// sequence:
//
//	parse → ifconvert → analyze → syncinsert → codegen → graph
package passes

import (
	"fmt"
	"strings"

	"doacross/internal/check"
	"doacross/internal/dep"
	"doacross/internal/dfg"
	"doacross/internal/diag"
	"doacross/internal/lang"
	"doacross/internal/migrate"
	"doacross/internal/syncop"
	"doacross/internal/tac"
	"doacross/internal/unroll"
)

// Pass is one named compilation stage. Run advances the context; Artifact
// renders the stage's product for -dump style inspection (it must only be
// called after Run succeeded, and may return "" when the pass has nothing
// presentable).
type Pass interface {
	Name() string
	Run(*Context) error
	Artifact(*Context) string
}

// Pass names of the default and optional passes.
const (
	PassParse      = "parse"
	PassUnroll     = "unroll"
	PassIfConvert  = "ifconvert"
	PassAnalyze    = "analyze"
	PassMigrate    = "migrate"
	PassSyncInsert = "syncinsert"
	PassCodegen    = "codegen"
	PassGraph      = "graph"
	PassVerify     = "verify"
)

// parsePass turns source text into a Loop. A context seeded with an already
// parsed Loop skips the work but still reports the pass (count, ~0 latency),
// so traces stay uniform.
type parsePass struct{}

func (parsePass) Name() string { return PassParse }

func (parsePass) Run(ctx *Context) error {
	if ctx.Loop != nil {
		return nil
	}
	loop, err := lang.Parse(ctx.Source)
	if err != nil {
		return err
	}
	ctx.Loop = loop
	return nil
}

func (parsePass) Artifact(ctx *Context) string { return ctx.Loop.String() }

// unrollPass unrolls the loop by a fixed factor before analysis, replacing
// the Program.Unroll recompile wrapper.
type unrollPass struct{ factor int }

func (unrollPass) Name() string { return PassUnroll }

func (p unrollPass) Run(ctx *Context) error {
	r, err := unroll.Unroll(ctx.Loop, p.factor)
	if err != nil {
		return diag.Errorf("unroll", ctx.Loop.Pos(), "%v", err)
	}
	ctx.Loop = r.Loop
	ctx.UnrollFactor = r.Factor
	return nil
}

func (p unrollPass) Artifact(ctx *Context) string {
	return fmt.Sprintf("! unrolled by %d\n%s", ctx.UnrollFactor, ctx.Loop)
}

// ifConvertPass authorizes and records the if-conversion of guarded
// statements. The compare/select lowering itself lives in the code
// generator; without this pass in the pipeline (Options.NoIfConvert) the
// codegen pass rejects guarded statements with a positioned diagnostic
// instead of lowering them.
type ifConvertPass struct{}

func (ifConvertPass) Name() string { return PassIfConvert }

func (ifConvertPass) Run(ctx *Context) error {
	ctx.ifConvertOK = true
	ctx.IfConverted = nil
	for _, st := range ctx.Loop.Body {
		if st.Cond != nil {
			ctx.IfConverted = append(ctx.IfConverted, st.Label)
		}
	}
	return nil
}

func (ifConvertPass) Artifact(ctx *Context) string {
	if len(ctx.IfConverted) == 0 {
		return "no guarded statements\n"
	}
	var sb strings.Builder
	for _, label := range ctx.IfConverted {
		st := ctx.Loop.Stmt(label)
		fmt.Fprintf(&sb, "if-converted %s (%s): %s\n", label, st.Pos(), st)
	}
	return sb.String()
}

// analyzePass runs the data-dependence analysis and surfaces its
// conservative-assumption warnings as diagnostics.
type analyzePass struct{ baseline bool }

func (analyzePass) Name() string { return PassAnalyze }

func (p analyzePass) Run(ctx *Context) error {
	ctx.Analysis = dep.AnalyzeOpts(ctx.Loop, dep.Options{Baseline: p.baseline})
	ctx.Diags = append(ctx.Diags, ctx.Analysis.Diagnostics()...)
	return nil
}

func (analyzePass) Artifact(ctx *Context) string {
	var sb strings.Builder
	for _, d := range ctx.Analysis.Deps {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	if len(ctx.Analysis.Deps) == 0 {
		sb.WriteString("no dependences (DOALL)\n")
	}
	if len(ctx.Analysis.Pairs) > 0 {
		exact, indep, cons := ctx.Analysis.Counts()
		fmt.Fprintf(&sb, "-- decisions: %d exact, %d independent, %d conservative\n",
			exact, indep, cons)
		for i := range ctx.Analysis.Pairs {
			fmt.Fprintf(&sb, "%s\n", &ctx.Analysis.Pairs[i])
		}
	}
	return sb.String()
}

// migratePass applies source-level synchronization migration (statement
// reordering) and re-analyzes the reordered loop, replacing the
// Program.Migrate + CompileLoop recompile wrapper.
type migratePass struct{ baseline bool }

func (migratePass) Name() string { return PassMigrate }

func (p migratePass) Run(ctx *Context) error {
	r, err := migrate.Migrate(ctx.Analysis)
	if err != nil {
		if _, ok := diag.As(err); ok {
			return err
		}
		return diag.Errorf("migrate", ctx.Loop.Pos(), "%v", err)
	}
	ctx.Migration = r
	ctx.Loop = r.Loop
	ctx.Analysis = dep.AnalyzeOpts(r.Loop, dep.Options{Baseline: p.baseline})
	return nil
}

func (migratePass) Artifact(ctx *Context) string {
	return fmt.Sprintf("! migration: %d -> %d LBD (moved=%v)\n%s",
		ctx.Migration.Before, ctx.Migration.After, ctx.Migration.Moved, ctx.Loop)
}

// syncInsertPass converts the analyzed DO loop to DOACROSS form with
// Send_Signal/Wait_Signal operations (the Fig. 1(b) view).
type syncInsertPass struct{ flowOnly bool }

func (syncInsertPass) Name() string { return PassSyncInsert }

func (p syncInsertPass) Run(ctx *Context) error {
	ctx.Sync = syncop.Insert(ctx.Analysis, syncop.Options{FlowOnly: p.flowOnly})
	return nil
}

func (syncInsertPass) Artifact(ctx *Context) string { return ctx.Sync.String() }

// codegenPass lowers the synchronized loop to three-address code (the
// Fig. 2 view). Guarded statements require the ifconvert pass to have run;
// otherwise they are rejected with a positioned diagnostic.
type codegenPass struct{}

func (codegenPass) Name() string { return PassCodegen }

func (codegenPass) Run(ctx *Context) error {
	if !ctx.ifConvertOK {
		for _, st := range ctx.Loop.Body {
			if st.Cond != nil {
				return diag.Errorf("tac", st.Pos(),
					"guarded statement requires the ifconvert pass (disabled by options)").WithStmt(st.Label)
			}
		}
	}
	code, err := tac.Generate(ctx.Sync)
	if err != nil {
		return err
	}
	ctx.Code = code
	return nil
}

func (codegenPass) Artifact(ctx *Context) string { return ctx.Code.Listing() }

// graphPass builds the synchronization-augmented data-flow graph and its
// Sig/Wat/Sigwat partition (the Fig. 3 view).
type graphPass struct{}

func (graphPass) Name() string { return PassGraph }

func (graphPass) Run(ctx *Context) error {
	g, err := dfg.Build(ctx.Code, ctx.Analysis)
	if err != nil {
		return err
	}
	ctx.Graph = g
	return nil
}

func (graphPass) Artifact(ctx *Context) string { return ctx.Graph.SyncInfo() }

// verifyPass is the opt-in static verification stage: it re-derives the
// dependence edges from the compiled code and the analysis (internal/check,
// which deliberately shares no code with internal/dfg), audits the built
// data-flow graph against them — every derived edge must be present, or
// the graph the schedulers are about to consume is missing a constraint —
// and runs the synchronization linter over both the compiler-inserted sync
// ops and any explicit Send_Signal/Wait_Signal statements of the source.
// Lint findings land in the diagnostics; findings of Error severity (a
// statically deadlocking source, a missing graph arc) fail the pass.
type verifyPass struct{}

func (verifyPass) Name() string { return PassVerify }

func (verifyPass) Run(ctx *Context) error {
	edges, err := check.Edges(ctx.Code)
	if err != nil {
		return diag.Errorf(check.Stage, ctx.Loop.Pos(), "%v", err)
	}
	ctx.VerifyEdges = len(edges)
	present := make(map[[2]int]bool, len(ctx.Graph.Arcs))
	for _, a := range ctx.Graph.Arcs {
		present[[2]int{int(a.From), int(a.To)}] = true
	}
	for _, e := range edges {
		if !present[[2]int{e.From, e.To}] {
			return diag.Errorf(check.Stage, ctx.Loop.Pos(),
				"dfg audit: derived %s edge %d->%d missing from the data-flow graph", e.Kind, e.From+1, e.To+1)
		}
	}
	lint := append(check.Lint(ctx.Loop), check.LintSync(ctx.Sync)...)
	ctx.LintFindings = lint
	ctx.Diags = append(ctx.Diags, lint...)
	if errs := lint.Errors(); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

func (verifyPass) Artifact(ctx *Context) string {
	return fmt.Sprintf("verified %d derived dependence edges against the data-flow graph\n%d lint findings\n",
		ctx.VerifyEdges, len(ctx.LintFindings))
}
