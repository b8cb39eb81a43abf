package core_test

import (
	"path/filepath"
	"slices"
	"testing"

	"doacross/internal/core"
	"doacross/internal/dlx"
	"doacross/internal/scheditest"
	"doacross/internal/tac"
)

// refMaxLive is the map-based MaxLive the dense sweep replaced, kept
// verbatim as the reference the equivalence tests hold it to.
func refMaxLive(s *core.Schedule) int {
	lastUse := map[int]int{} // temp -> last issue cycle of a consumer
	defAt := map[int]int{}
	for v, in := range s.Prog.Instrs {
		if in.Dst != 0 {
			defAt[int(in.Dst)] = s.Cycle[v]
		}
		for _, t := range in.Uses() {
			if s.Cycle[v] > lastUse[t] {
				lastUse[t] = s.Cycle[v]
			}
		}
	}
	horizon := s.Length()
	delta := make([]int, horizon+2)
	for t, d := range defAt {
		end, used := lastUse[t]
		if !used {
			end = d // dead value: live for its def cycle only
		}
		delta[d]++
		if end+1 <= horizon+1 {
			delta[end+1]--
		}
	}
	live, peak := 0, 0
	for c := 0; c <= horizon; c++ {
		live += delta[c]
		if live > peak {
			peak = live
		}
	}
	return peak
}

// TestMaxLiveEquivalence holds MaxLive to the map-based reference on the
// list and sync schedules of the kernels, the five synthetic Perfect suites
// and a seeded loopgen suite, on every paper machine.
func TestMaxLiveEquivalence(t *testing.T) {
	count := 120
	if testing.Short() {
		count = 40
	}
	for _, c := range scheditest.WideCorpus(t, filepath.Join("..", "..", "testdata", "kernels"), count) {
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
				if got, want := s.MaxLive(), refMaxLive(s); got != want {
					t.Fatalf("%s, %s on %s: MaxLive = %d, reference %d", c.Name, s.Method, m.Name, got, want)
				}
			}
		}
	}
}

// TestMaxLiveTempsOutOfRange hand-builds programs naming a temp above
// NumTemps or a negative temp: the dense tables are sized by the temps the
// program mentions, so MaxLive neither panics nor departs from the
// reference.
func TestMaxLiveTempsOutOfRange(t *testing.T) {
	g := compile(t, "DO I = 1, N\nA[I] = A[I-1] + B[I]\nENDDO")
	s, err := core.Sync(g, dlx.Standard(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	edits := map[string]func(*tac.Instr){
		"def above NumTemps": func(in *tac.Instr) { in.Dst = int32(s.Prog.NumTemps + 3) },
		"negative def":       func(in *tac.Instr) { in.Dst = -2 },
		"use above NumTemps": func(in *tac.Instr) { in.A = tac.TempOp(s.Prog.NumTemps + 5) },
		"negative use":       func(in *tac.Instr) { in.A = tac.Operand{Kind: tac.Temp, Reg: -1} },
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			for k := range s.Prog.Instrs {
				prog := *s.Prog
				prog.Instrs = slices.Clone(s.Prog.Instrs)
				edit(&prog.Instrs[k])
				hs := *s
				hs.Prog = &prog
				if got, want := hs.MaxLive(), refMaxLive(&hs); got != want {
					t.Fatalf("instr %d edited: MaxLive = %d, reference %d", k+1, got, want)
				}
			}
		})
	}
}
