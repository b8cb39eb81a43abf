package diag_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doacross/internal/check"
	"doacross/internal/diag"
	"doacross/internal/lang"
	"doacross/internal/scheditest"
)

// errorRef is Diagnostic.Error as it was rendered with fmt: the reference
// the one-allocation Error is held to.
func errorRef(d *diag.Diagnostic) string {
	var sb strings.Builder
	if d.Stage != "" {
		sb.WriteString(d.Stage)
		sb.WriteString(": ")
	}
	if d.Pos.IsValid() {
		fmt.Fprintf(&sb, "line %d col %d", d.Pos.Line, d.Pos.Col)
		sb.WriteString(": ")
	}
	if d.Stmt != "" {
		fmt.Fprintf(&sb, "statement %s: ", d.Stmt)
	}
	sb.WriteString(d.Msg)
	return sb.String()
}

// TestErrorEquivalence holds Error to the fmt rendering on every compile
// diagnostic and lint finding of the wide corpus and the size sweep's
// 20-statement loops, on the lint fixtures, and on edge cases: no stage,
// no position, no statement, and positions at the integer limits.
func TestErrorEquivalence(t *testing.T) {
	var all diag.List
	cases := scheditest.WideCorpus(t, filepath.Join("..", "..", "testdata", "kernels"), 100)
	for _, c := range append(cases, scheditest.SweepCorpus(t, 20)...) {
		sl := c.Graph.Prog.Sync
		all = append(all, sl.Analysis.Diagnostics()...)
		all = append(all, check.LintSync(sl)...)
	}
	fixtures, err := filepath.Glob(filepath.Join("..", "check", "testdata", "*.loop"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no lint fixtures: %v", err)
	}
	for _, path := range fixtures {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		loop, err := lang.Parse(string(text))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, check.Lint(loop)...)
	}
	for _, src := range []string{"DO I = 1, N\nA[I] = \nENDDO", "DO I = 1\nENDDO", "S1: A[I] = 1"} {
		_, err := lang.Parse(src)
		d, ok := diag.As(err)
		if !ok {
			t.Fatalf("%q: parse error %v carries no diagnostic", src, err)
		}
		all = append(all, d)
	}
	if len(all) < 100 {
		t.Fatalf("only %d diagnostics collected", len(all))
	}
	for _, stage := range []string{"", "lint"} {
		for _, pos := range []diag.Pos{{}, {Line: 1}, {Line: 3, Col: 7}, {Line: -2, Col: 5},
			{Line: math.MaxInt, Col: math.MaxInt}, {Line: math.MaxInt, Col: math.MinInt}} {
			for _, stmt := range []string{"", "S12"} {
				for _, msg := range []string{"", "m", strings.Repeat("long message ", 40)} {
					all = append(all, &diag.Diagnostic{Stage: stage, Pos: pos, Stmt: stmt, Msg: msg})
				}
			}
		}
	}
	for _, d := range all {
		if got, want := d.Error(), errorRef(d); got != want {
			t.Fatalf("%+v: Error %q, want %q", *d, got, want)
		}
	}
}
