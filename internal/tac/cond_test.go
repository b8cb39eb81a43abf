package tac

import (
	"strings"
	"testing"

	"doacross/internal/dep"
	"doacross/internal/lang"
	"doacross/internal/syncop"
)

func TestConditionalLowering(t *testing.T) {
	p := compile(t, "DO I = 1, N\nIF (E[I] > 0) A[I] = A[I-1] + 1\nENDDO")
	var hasCmp, hasSelect, mergeLoads int
	for _, in := range p.Instrs {
		switch in.Op {
		case Cmp:
			hasCmp++
		case Select:
			hasSelect++
		}
	}
	mergeLoads = len(p.MergeLoad)
	if hasCmp != 1 || hasSelect != 1 || mergeLoads != 1 {
		t.Errorf("cmp=%d select=%d merge=%d, want 1/1/1\n%s", hasCmp, hasSelect, mergeLoads, p.Listing())
	}
	// The store must be unconditional and consume the select result.
	ls := p.Listing()
	if !strings.Contains(ls, "?") {
		t.Errorf("listing missing select:\n%s", ls)
	}
}

func TestConditionalSemantics(t *testing.T) {
	src := "DO I = 1, N\nIF (E[I] > 0) A[I] = A[I-1] + E[I]\nENDDO"
	loop := lang.MustParse(src)
	p := compile(t, src)
	st := lang.NewStore()
	st.SetScalar("N", 6)
	st.SetElem("A", 0, 10)
	for i := 1; i <= 6; i++ {
		v := float64(i)
		if i%3 == 0 {
			v = -v
		}
		st.SetElem("E", i, v)
		st.SetElem("A", i, 100+float64(i))
	}
	ref := st.Clone()
	if err := loop.Run(ref); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(st); err != nil {
		t.Fatal(err)
	}
	if d := ref.Diff(st); d != "" {
		t.Errorf("conditional TAC diverges: %s\n%s", d, p.Listing())
	}
}

func TestConditionalScalarSemantics(t *testing.T) {
	// Conditional max-reduction: M = A[I] when A[I] > M.
	src := "DO I = 1, N\nIF (A[I] > M) M = A[I]\nENDDO"
	loop := lang.MustParse(src)
	p := compile(t, src)
	st := lang.NewStore()
	st.SetScalar("N", 8)
	st.SetScalar("M", -1e9)
	vals := []float64{3, 7, 2, 9, 1, 9, 4, 8}
	for i, v := range vals {
		st.SetElem("A", i+1, v)
	}
	ref := st.Clone()
	if err := loop.Run(ref); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(st); err != nil {
		t.Fatal(err)
	}
	if st.Scalar("M") != 9 || ref.Scalar("M") != 9 {
		t.Errorf("max = %v / %v, want 9", st.Scalar("M"), ref.Scalar("M"))
	}
}

func TestConditionalDependences(t *testing.T) {
	// A conditional write still sources a loop-carried dependence, and the
	// merge read adds an anti-dependence on the written element.
	a := dep.Analyze(lang.MustParse("DO I = 1, N\nIF (E[I] > 0) A[I] = E[I]\nB[I] = A[I-1]\nENDDO"))
	foundFlow := false
	for _, d := range a.Deps {
		if d.Kind == dep.Flow && d.Carried() && d.Src.Name() == "A" {
			foundFlow = true
		}
	}
	if !foundFlow {
		t.Errorf("conditional write must source the carried flow dep: %v", a.Deps)
	}
}

func TestConditionalSyncArcs(t *testing.T) {
	// The merge load of a conditionally-written sink element must be guarded
	// by the wait: IF (..) A[I] = ..; with a consumer A[I-1] elsewhere the
	// write is a source; conversely a conditional *sink* read: check the
	// pipeline compiles and schedules.
	src := "DO I = 1, N\nIF (E[I] > 0) A[I] = A[I-1] + 1\nENDDO"
	loop := lang.MustParse(src)
	a := dep.Analyze(loop)
	sl := syncop.Insert(a, syncop.Options{})
	sends, waits := sl.NumOps()
	if sends == 0 || waits == 0 {
		t.Fatalf("conditional recurrence got %d sends %d waits", sends, waits)
	}
	if _, err := Generate(sl); err != nil {
		t.Fatal(err)
	}
}

func TestCmpSelectExec(t *testing.T) {
	p := &Program{}
	f := NewFrame(4, 1)
	st := lang.NewStore()
	if err := p.Exec(&Instr{Op: Cmp, Dst: 1, A: p.ConstOp(3), B: p.ConstOp(2), Rel: lang.RelGT}, f, st); err != nil {
		t.Fatal(err)
	}
	if f.Temps[1] != 1 {
		t.Errorf("3 > 2 = %v, want 1", f.Temps[1])
	}
	if err := p.Exec(&Instr{Op: Select, Dst: 2, A: p.ConstOp(10), B: p.ConstOp(20), C: TempOp(1)}, f, st); err != nil {
		t.Fatal(err)
	}
	if f.Temps[2] != 10 {
		t.Errorf("select true = %v, want 10", f.Temps[2])
	}
	if err := p.Exec(&Instr{Op: Cmp, Dst: 3, A: p.ConstOp(3), B: p.ConstOp(3), Rel: lang.RelNE}, f, st); err != nil {
		t.Fatal(err)
	}
	if err := p.Exec(&Instr{Op: Select, Dst: 4, A: p.ConstOp(10), B: p.ConstOp(20), C: TempOp(3)}, f, st); err != nil {
		t.Fatal(err)
	}
	if f.Temps[4] != 20 {
		t.Errorf("select false = %v, want 20", f.Temps[4])
	}
}
