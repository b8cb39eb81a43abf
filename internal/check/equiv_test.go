package check_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"doacross"
	"doacross/internal/check"
	"doacross/internal/core"
	"doacross/internal/diag"
	"doacross/internal/dlx"
	"doacross/internal/scheditest"
	"doacross/internal/tac"
)

// equivCorpus is the corpus the dense edge derivation is held to its
// map-based reference on: the kernels, the five synthetic Perfect suites and
// a seeded loopgen suite (shorter under -short).
func equivCorpus(t *testing.T) []scheditest.Case {
	count := 120
	if testing.Short() {
		count = 40
	}
	return scheditest.WideCorpus(t, filepath.Join("..", "..", "testdata", "kernels"), count)
}

// sameDiags reports whether two diagnostic lists are identical, diagnostic
// for diagnostic.
func sameDiags(a, b diag.List) bool {
	return slices.EqualFunc(a, b, func(x, y *diag.Diagnostic) bool { return *x == *y })
}

// TestEdgesEquivalence holds Edges to the map-based reference: the same
// edges in the same order, or the same error.
func TestEdgesEquivalence(t *testing.T) {
	for _, c := range equivCorpus(t) {
		got, err := check.Edges(c.Graph.Prog)
		want, werr := refEdges(c.Graph.Prog)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("%s: error %v, reference %v", c.Name, err, werr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: edges differ from the reference\n got %v\nwant %v", c.Name, got, want)
		}
	}
}

// TestVerifierEquivalence checks that a Verifier prepared once per program
// gives the one-shot Verify's diagnostics on every schedule of it: the list
// and sync schedules on each paper machine, and a copy of each with its last
// instruction pulled to cycle 0 so the rejections are compared too.
func TestVerifierEquivalence(t *testing.T) {
	for _, c := range equivCorpus(t) {
		v := check.NewVerifier(c.Graph.Prog)
		for _, m := range dlx.PaperConfigs() {
			l, err := core.List(c.Graph, m, core.CriticalPath)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.Name, m.Name, err)
			}
			s, err := core.Sync(c.Graph, m)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.Name, m.Name, err)
			}
			for _, s := range []*core.Schedule{l, s} {
				mut := cloneSchedule(s)
				mut.Cycle[len(mut.Cycle)-1] = 0
				rebuildRows(mut)
				for _, s := range []*core.Schedule{s, mut} {
					if got, want := v.Verify(s), check.Verify(s); !sameDiags(got, want) {
						t.Fatalf("%s, %s on %s: Verifier disagrees with Verify\n got %s\nwant %s",
							c.Name, s.Method, m.Name, got, want)
					}
				}
			}
		}
	}
}

// TestVerifierOtherProgramFallsBack verifies schedules of one program with a
// Verifier prepared for another. The paper loop's edges index instructions
// a single-statement loop does not have, so only the fallback to a full
// derivation can reproduce the one-shot verdicts.
func TestVerifierOtherProgramFallsBack(t *testing.T) {
	paper := doacross.MustCompile(paperSrc)
	small := doacross.MustCompile("DO I = 1, N\n  S1: A[I] = A[I-1] + B[I]\nENDDO")
	if len(small.Code.Instrs) >= len(paper.Code.Instrs) {
		t.Fatalf("test premise: %d instructions should be fewer than %d", len(small.Code.Instrs), len(paper.Code.Instrs))
	}
	v := check.NewVerifier(paper.Code)
	s, err := small.ScheduleSync(doacross.NewMachine(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if l := v.Verify(s); check.Err(l) != nil {
		t.Fatalf("clean schedule of another program rejected:\n%s", l)
	}
	mut := cloneSchedule(s)
	for v := range mut.Cycle {
		mut.Cycle[v] = 0
	}
	rebuildRows(mut)
	got, want := v.Verify(mut), check.Verify(mut)
	if check.Err(want) == nil || !sameDiags(got, want) {
		t.Fatalf("mutated schedule of another program:\n got %s\nwant %s", got, want)
	}
}

// withInstr returns a copy of p whose instruction k is replaced by the
// result of edit on a copy of it.
func withInstr(p *tac.Program, k int, edit func(*tac.Instr)) *tac.Program {
	cp := *p
	cp.Instrs = slices.Clone(p.Instrs)
	in := *cp.Instrs[k]
	edit(&in)
	cp.Instrs[k] = &in
	return &cp
}

// TestEdgesRejectTempsOutOfRange hand-builds programs naming a temp above
// NumTemps or a negative temp: the dense def table must turn them into
// errors, never an index panic (MaxLive on such programs is covered in
// internal/core).
func TestEdgesRejectTempsOutOfRange(t *testing.T) {
	p := doacross.MustCompile(paperSrc)
	s, err := p.ScheduleSync(doacross.NewMachine(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	def, use := -1, -1 // first instruction defining a temp, first reading one
	for k, in := range p.Code.Instrs {
		if def < 0 && in.Dst != 0 {
			def = k
		}
		if use < 0 && in.A.Kind == tac.Temp {
			use = k
		}
	}
	if def < 0 || use < 0 {
		t.Fatal("test premise: the paper loop defines and reads temps")
	}
	above := p.Code.NumTemps + 3
	cases := []struct {
		name string
		prog *tac.Program
		msg  string
	}{
		{"def above NumTemps", withInstr(p.Code, def, func(in *tac.Instr) { in.Dst = above }), "defines temp"},
		{"negative def", withInstr(p.Code, def, func(in *tac.Instr) { in.Dst = -2 }), "defines temp"},
		{"use above NumTemps", withInstr(p.Code, use, func(in *tac.Instr) { in.A.Reg = above }), "uses temp"},
		{"negative use", withInstr(p.Code, use, func(in *tac.Instr) { in.A.Reg = -1 }), "uses temp"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := check.Edges(c.prog)
			if err == nil || !strings.Contains(err.Error(), c.msg) || !strings.Contains(err.Error(), "outside") {
				t.Fatalf("Edges error = %v, want one naming a temp outside the range", err)
			}
			hs := *s
			hs.Prog = c.prog
			if l := check.Verify(&hs); check.Err(l) == nil {
				t.Error("Verify accepted a program whose edges cannot be derived")
			}
		})
	}
}
