package dep_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"doacross/internal/dep"
	"doacross/internal/diag"
	"doacross/internal/lang"
	"doacross/internal/scheditest"
)

// stringRef is Dependence.String as it was rendered with fmt.
func stringRef(d dep.Dependence) string {
	carried := ""
	if d.Conservative {
		carried = " (conservative)"
	}
	return fmt.Sprintf("%s S%d->S%d dist %d (%s)%s",
		d.Kind, d.Src.Stmt+1, d.Snk.Stmt+1, d.Distance, d.Src.Name(), carried)
}

// diagnosticsRef is Analysis.Diagnostics as it was: every warning rendered
// with fmt, deduplicated on its text.
func diagnosticsRef(a *dep.Analysis) diag.List {
	var out diag.List
	seen := map[string]bool{}
	for _, d := range a.Deps {
		if !d.Conservative {
			continue
		}
		st := a.Loop.Body[d.Src.Stmt]
		w := diag.Warningf("dep", st.Pos(),
			"conservative dependence assumed (%s): %s", dep.ConservativeReason(d.Evidence.Rule), stringRef(d)).WithStmt(st.Label)
		key := w.Error()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, w)
	}
	return out
}

// TestDiagnosticsEquivalence holds Diagnostics and Dependence.String to
// their fmt references on the wide corpus and the size sweep's loops up to
// 40 statements, under the precise analysis and the baseline one (which
// assumes many more conservative dependences): the same warnings, in the
// same order, with the same text.
func TestDiagnosticsEquivalence(t *testing.T) {
	cases := scheditest.WideCorpus(t, filepath.Join("..", "..", "testdata", "kernels"), 100)
	cases = append(cases, scheditest.SweepCorpus(t, 40)...)
	warnings := 0
	for _, c := range cases {
		loop := c.Graph.Prog.Sync.Base
		for _, opt := range []dep.Options{{}, {Baseline: true}} {
			a := dep.AnalyzeOpts(loop, opt)
			for _, d := range a.Deps {
				if got, want := d.String(), stringRef(d); got != want {
					t.Fatalf("%s: Dependence.String %q, want %q", c.Name, got, want)
				}
			}
			got, want := a.Diagnostics(), diagnosticsRef(a)
			if !slices.EqualFunc(got, want, func(x, y *diag.Diagnostic) bool { return *x == *y }) {
				t.Fatalf("%s (baseline %v): Diagnostics\n%s want\n%s", c.Name, opt.Baseline, got, want)
			}
			warnings += len(got)
		}
	}
	if warnings < 100 {
		t.Fatalf("only %d warnings compared", warnings)
	}
}

// TestDiagnosticsDedupFields: conservative dependences that differ in one
// field the warning text shows (kind, statements, distance, array, or a
// reason) give one warning each, and rules phrased by the same reason give
// one warning between them. The analyzer rarely assigns one statement pair
// conservative dependences with different reasons, so they are made here.
func TestDiagnosticsDedupFields(t *testing.T) {
	a := dep.Analyze(lang.MustParse("DO I = 1, N\nS1: A[I] = B[I]\nS2: B[I] = A[I]\nENDDO"))
	base := dep.Dependence{Kind: dep.Flow, Src: dep.Ref{ScalarName: "A"}, Snk: dep.Ref{Stmt: 1, ScalarName: "A"},
		Distance: 1, Conservative: true}
	a.Deps = nil
	for r := dep.Rule(0); r < 16; r++ {
		d := base
		d.Evidence.Rule = r
		a.Deps = append(a.Deps, d, d)
	}
	for _, vary := range []func(*dep.Dependence){
		func(d *dep.Dependence) { d.Kind = dep.Anti },
		func(d *dep.Dependence) { d.Src.Stmt, d.Snk.Stmt = 1, 0 },
		func(d *dep.Dependence) { d.Distance = 2 },
		func(d *dep.Dependence) { d.Src.ScalarName = "B" },
		func(d *dep.Dependence) { d.Conservative = false },
	} {
		d := base
		vary(&d)
		a.Deps = append(a.Deps, d, base, d)
	}
	got, want := a.Diagnostics(), diagnosticsRef(a)
	if !slices.EqualFunc(got, want, func(x, y *diag.Diagnostic) bool { return *x == *y }) {
		t.Fatalf("Diagnostics\n%s want\n%s", got, want)
	}
	if len(got) < 5+4 {
		t.Fatalf("only %d warnings:\n%s", len(got), got)
	}
}
