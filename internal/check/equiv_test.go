package check_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"doacross"
	"doacross/internal/check"
	"doacross/internal/core"
	"doacross/internal/diag"
	"doacross/internal/dlx"
	"doacross/internal/lang"
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

// sweepCorpus is the size sweep's loops up to 40 statements (20 under
// -short), on which the rewritten lint, edge derivation and deadlock check
// are also held to their references.
func sweepCorpus(t *testing.T) []scheditest.Case {
	if testing.Short() {
		return scheditest.SweepCorpus(t, 20)
	}
	return scheditest.SweepCorpus(t, 40)
}

// sameDiags reports whether two diagnostic lists are identical, diagnostic
// for diagnostic.
func sameDiags(a, b diag.List) bool {
	return slices.EqualFunc(a, b, func(x, y *diag.Diagnostic) bool { return *x == *y })
}

// TestEdgesEquivalence holds Edges to the map-based reference: the same
// edges in the same order, or the same error.
func TestEdgesEquivalence(t *testing.T) {
	for _, c := range append(equivCorpus(t), sweepCorpus(t)...) {
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
// result of edit on a copy of it. The copy is assembled from p's exported
// fields, without the lookups Generate built for p's instructions, so its
// lookups scan the edited instructions.
func withInstr(p *tac.Program, k int, edit func(*tac.Instr)) *tac.Program {
	cp := &tac.Program{
		Sync: p.Sync, Instrs: slices.Clone(p.Instrs), NumTemps: p.NumTemps,
		Names: p.Names, Consts: p.Consts,
		ArrayInstr: p.ArrayInstr, ScalarInstr: p.ScalarInstr, MergeLoad: p.MergeLoad,
	}
	edit(&cp.Instrs[k])
	return cp
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
	above := int32(p.Code.NumTemps + 3)
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

// TestLintSyncEquivalence holds LintSync to the linter it replaced on the
// compiler-inserted synchronization of the wide corpus and the size-sweep
// loops up to 40 statements: the same findings with the same text, in the
// same order. No search of these loops reaches the budget, so no finding
// is allowed to differ.
func TestLintSyncEquivalence(t *testing.T) {
	for _, c := range append(equivCorpus(t), sweepCorpus(t)...) {
		sl := c.Graph.Prog.Sync
		if got, want := check.LintSync(sl), refLintSync(sl); !sameDiags(got, want) {
			t.Fatalf("%s: LintSync differs from the reference\n got %s\nwant %s", c.Name, got, want)
		}
	}
}

// TestLintEquivalence does the same for explicitly written synchronization:
// the lint fixtures, whose goldens pin the text as well.
func TestLintEquivalence(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.loop"))
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
		if got, want := check.Lint(loop), refLint(loop); !sameDiags(got, want) {
			t.Fatalf("%s: Lint differs from the reference\n got %s\nwant %s", path, got, want)
		}
	}
}

// TestRedundantSearchWithinBudget checks that the redundant-wait searches
// of the wide corpus and the size sweep stay within both of their bounds,
// so the bounds change no finding on them.
func TestRedundantSearchWithinBudget(t *testing.T) {
	sweep := 80
	if testing.Short() {
		sweep = 20
	}
	for _, c := range append(equivCorpus(t), scheditest.SweepCorpus(t, sweep)...) {
		peak, work := check.RedundantSearchCost(c.Graph.Prog.Sync)
		if peak >= check.RedundantStates {
			t.Errorf("%s: a redundant-wait search visits %d states, bound %d", c.Name, peak, check.RedundantStates)
		}
		if work >= check.RedundantWork {
			t.Errorf("%s: the redundant-wait searches examine %d (state, wait) pairs, bound %d", c.Name, work, check.RedundantWork)
		}
	}
}

// TestDeadlockEquivalence holds the deadlock check to the Bellman-Ford
// search over materialized arcs it replaced. Every wait of every sync
// schedule of the wide corpus is given its own distance, 0 and -1, with
// its send issued first, in place and last: the verdicts and the
// missing-send findings must agree, and a reported cycle must be a real
// wait-for cycle of non-positive total distance. The size sweep's
// schedules up to 20 statements are checked as scheduled: the reference
// materializes arcs quadratic in their hundreds of sync instructions.
func TestDeadlockEquivalence(t *testing.T) {
	for _, c := range scheditest.SweepCorpus(t, 20) {
		for _, m := range dlx.PaperConfigs() {
			s, err := core.Sync(c.Graph, m)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.Name, m.Name, err)
			}
			if sameDeadlockVerdict(t, c.Name+" on "+m.Name, s) {
				t.Fatalf("%s on %s: organic schedule deadlocks", c.Name, m.Name)
			}
		}
	}
	checked, deadlocked := 0, 0
	for _, c := range equivCorpus(t) {
		for _, m := range dlx.PaperConfigs() {
			s, err := core.Sync(c.Graph, m)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.Name, m.Name, err)
			}
			for v, in := range s.Prog.Instrs {
				send := s.Prog.SendOf(v)
				if send < 0 {
					continue
				}
				for _, d := range []int{int(in.SigDist), 0, -1} {
					mut := withWaitDistance(s, v, d)
					for _, at := range []int{0, s.Cycle[send], len(s.Rows)} {
						mut := cloneSchedule(mut)
						mut.Cycle[send] = at
						rebuildRows(mut)
						checked++
						if sameDeadlockVerdict(t, fmt.Sprintf("%s on %s, wait %d at distance %d, send at %d", c.Name, m.Name, v, d, at), mut) {
							deadlocked++
						}
					}
				}
			}
		}
	}
	if deadlocked == 0 || deadlocked == checked {
		t.Fatalf("%d of %d mutated schedules deadlock: the corpus does not exercise both verdicts", deadlocked, checked)
	}
}

// withWaitDistance returns a copy of s whose program gives wait v distance d.
func withWaitDistance(s *core.Schedule, v, d int) *core.Schedule {
	cp := *s
	cp.Prog = withInstr(s.Prog, v, func(in *tac.Instr) { in.SigDist = int32(d) })
	return &cp
}

// sameDeadlockVerdict fails unless the deadlock check agrees with the
// reference on s: the same findings, except that the text of a reported
// wait-for cycle may name another cycle, which must be real. It reports
// whether a cycle was found.
func sameDeadlockVerdict(t *testing.T, name string, s *core.Schedule) bool {
	t.Helper()
	got, want := check.VerifyDeadlockFree(s), refVerifyDeadlockFree(s, check.RowPos(s))
	const cycleMsg = "cross-iteration deadlock"
	sameExceptCycle := slices.EqualFunc(got, want, func(x, y *diag.Diagnostic) bool {
		if strings.Contains(x.Msg, cycleMsg) {
			return strings.Contains(y.Msg, cycleMsg)
		}
		return *x == *y
	})
	if !sameExceptCycle {
		t.Fatalf("%s: deadlock check differs from the reference\n got %s\nwant %s", name, got, want)
	}
	cycle := check.DeadlockCycle(s)
	if reported := len(got) > 0 && strings.Contains(got[len(got)-1].Msg, cycleMsg); reported != (cycle != nil) {
		t.Fatalf("%s: cycle %v, findings %s", name, cycle, got)
	}
	if cycle != nil && !realDeadlockCycle(s, cycle) {
		t.Fatalf("%s: reported cycle %v is not a wait-for cycle of non-positive distance", name, cycle)
	}
	return cycle != nil
}

// realDeadlockCycle reports whether cycle, each instruction preceded by
// its successor, is a cycle of the wait-for graph with total distance <= 0:
// consecutive instructions are joined by a wait's arc to its send (weight
// d) or by an in-order stall arc into a wait from an instruction issued
// after it (weight 0), the lighter when both exist.
func realDeadlockCycle(s *core.Schedule, cycle []int) bool {
	rowPos := check.RowPos(s)
	total := 0
	for i, to := range cycle {
		from := cycle[(i+1)%len(cycle)]
		w, ok := 0, false
		if in := s.Prog.Instrs[from]; in.Op == tac.Wait && s.Prog.SendOf(from) == to {
			w, ok = int(in.SigDist), true
		}
		later := s.Cycle[from] > s.Cycle[to] || s.Cycle[from] == s.Cycle[to] && rowPos[from] > rowPos[to]
		if s.Prog.Instrs[to].Op == tac.Wait && s.Prog.SendOf(to) >= 0 && later && (!ok || w > 0) {
			w, ok = 0, true
		}
		if !ok {
			return false
		}
		total += w
	}
	return total <= 0
}
