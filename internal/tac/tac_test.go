package tac

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"doacross/internal/dep"
	"doacross/internal/dlx"
	"doacross/internal/lang"
	"doacross/internal/syncop"
)

const fig1Source = `
DO I = 1, N
  S1: B[I] = A[I-2] + E[I+1]
  S2: G[I-3] = A[I-1] * E[I+2]
  S3: A[I] = B[I] + C[I+3]
ENDDO
`

func compile(t testing.TB, src string) *Program {
	a := dep.Analyze(lang.MustParse(src))
	sl := syncop.Insert(a, syncop.Options{})
	p, err := Generate(sl)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFig2Shape checks the lowering against the paper's Fig. 2. Our code
// generator emits a separate add before the final store where the paper's
// line 26 fuses "A[t1] <- t18+t21" into one instruction, so we expect 28
// instructions whose first 26 line up one-to-one with the paper.
func TestFig2Shape(t *testing.T) {
	p := compile(t, fig1Source)
	if len(p.Instrs) != 28 {
		t.Fatalf("got %d instructions, want 28:\n%s", len(p.Instrs), p.Listing())
	}
	checks := map[int]string{
		1:  "Wait_Signal(S3, I-2)",
		2:  "t1 <- 4 * I",
		3:  "t2 <- I - 2",
		5:  "t4 <- A[t3]",
		9:  "t8 <- t4 + t7",
		10: "B[t1] <- t8",
		11: "Wait_Signal(S3, I-1)",
		16: "t13 <- A[t12]",
		20: "t17 <- t13 * t16",
		22: "t18 <- B[t1]",
		25: "t21 <- C[t20]",
		26: "t22 <- t18 + t21",
		27: "A[t1] <- t22",
		28: "Send_Signal(S3)",
	}
	for id, want := range checks {
		if got := p.Format(&p.Instrs[id-1]); got != want {
			t.Errorf("instr %d = %q, want %q\n%s", id, got, want, p.Listing())
		}
	}
}

func TestAddressCSE(t *testing.T) {
	p := compile(t, fig1Source)
	// 4*I must be computed once (t1), shared by B[I] store, B[I] load and
	// A[I] store.
	count := 0
	for _, in := range p.Instrs {
		if in.Op == Shl && in.A.Kind == IV {
			count++
		}
	}
	if count != 1 {
		t.Errorf("4*I computed %d times, want 1 (CSE)", count)
	}
}

func TestNoCSEAcrossMutableScalars(t *testing.T) {
	// J changes between the two uses of A[J]; addresses must not be reused.
	p := compile(t, "DO I = 1, N\nB[I] = A[J]\nJ = J + 1\nC[I] = A[J]\nENDDO")
	loads := 0
	for _, in := range p.Instrs {
		if in.Op == LoadS && p.Name(in.Array) == "J" {
			loads++
		}
	}
	if loads < 2 {
		t.Errorf("J loaded %d times, want >= 2 (no unsafe CSE)", loads)
	}
}

func TestClassMapping(t *testing.T) {
	p := compile(t, fig1Source)
	byID := func(id int) *Instr { return &p.Instrs[id-1] }
	cases := []struct {
		id   int
		want dlx.Class
	}{
		{1, dlx.Sync},       // wait
		{2, dlx.Shifter},    // 4*I
		{3, dlx.Integer},    // I-2
		{5, dlx.LoadStore},  // load
		{9, dlx.Float},      // data add
		{10, dlx.LoadStore}, // store
		{20, dlx.Multiplier},
		{28, dlx.Sync}, // send
	}
	for _, c := range cases {
		if got := byID(c.id).Class(); got != c.want {
			t.Errorf("instr %d class = %v, want %v", c.id, got, c.want)
		}
	}
}

func TestDivClass(t *testing.T) {
	p := compile(t, "DO I = 1, N\nA[I] = B[I] / C[I]\nENDDO")
	found := false
	for _, in := range p.Instrs {
		if in.Op == Div {
			found = true
			if in.Class() != dlx.Divider {
				t.Errorf("div class = %v", in.Class())
			}
		}
	}
	if !found {
		t.Fatal("no div instruction generated")
	}
}

func TestArrayInstrMapping(t *testing.T) {
	loop := lang.MustParse(fig1Source)
	a := dep.Analyze(loop)
	p := MustGenerate(syncop.Insert(a, syncop.Options{}))
	// Every array reference in the AST must map to a load or store.
	for _, st := range loop.Body {
		for _, r := range lang.ArrayRefs(st.LHS) {
			v, ok := p.ArrayInstr[r]
			if !ok || p.Instrs[v].Op != Store {
				t.Errorf("LHS ref %s has no store mapping", r)
			}
		}
		for _, r := range lang.ArrayRefs(st.RHS) {
			v, ok := p.ArrayInstr[r]
			if !ok || p.Instrs[v].Op != Load {
				t.Errorf("RHS ref %s has no load mapping", r)
			}
		}
	}
}

func TestRunMatchesInterpreter(t *testing.T) {
	loop := lang.MustParse(fig1Source)
	p := compile(t, fig1Source)
	n := 10
	ref := loop.SeedStore(n, 8, 99)
	got := ref.Clone()
	if err := loop.Run(ref); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(got); err != nil {
		t.Fatal(err)
	}
	if d := ref.Diff(got); d != "" {
		t.Errorf("TAC execution diverges from interpreter: %s", d)
	}
}

func TestRunReduction(t *testing.T) {
	src := "DO I = 1, N\nS = S + A[I]\nENDDO"
	loop := lang.MustParse(src)
	p := compile(t, src)
	st := lang.NewStore()
	st.SetScalar("N", 5)
	for i := 1; i <= 5; i++ {
		st.SetElem("A", i, float64(i))
	}
	ref := st.Clone()
	if err := loop.Run(ref); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(st); err != nil {
		t.Fatal(err)
	}
	if st.Scalar("S") != ref.Scalar("S") {
		t.Errorf("S = %v, want %v", st.Scalar("S"), ref.Scalar("S"))
	}
}

func TestRunIndirectSubscript(t *testing.T) {
	src := "DO I = 1, N\nB[I] = A[X[I]]\nENDDO"
	loop := lang.MustParse(src)
	p := compile(t, src)
	st := lang.NewStore()
	st.SetScalar("N", 4)
	for i := 1; i <= 4; i++ {
		st.SetElem("X", i, float64(5-i))
		st.SetElem("A", i, float64(10*i))
	}
	ref := st.Clone()
	if err := loop.Run(ref); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(st); err != nil {
		t.Fatal(err)
	}
	if d := ref.Diff(st); d != "" {
		t.Errorf("indirect subscript mismatch: %s", d)
	}
}

func TestQuickTACMatchesInterpreter(t *testing.T) {
	arrays := []string{"A", "B", "C"}
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		loop := &lang.Loop{Var: "I", Lo: &lang.Const{Value: 1}, Hi: &lang.Scalar{Name: "N"}}
		nst := 1 + r.Intn(4)
		mkRef := func() lang.Expr {
			return &lang.ArrayRef{Name: arrays[r.Intn(3)], Index: &lang.Binary{Op: lang.OpAdd, L: &lang.Scalar{Name: "I"}, R: &lang.Const{Value: float64(r.Intn(7) - 3)}}}
		}
		var mkExpr func(d int) lang.Expr
		mkExpr = func(d int) lang.Expr {
			if d == 0 || r.Intn(3) == 0 {
				switch r.Intn(3) {
				case 0:
					return &lang.Const{Value: float64(r.Intn(9))}
				case 1:
					return &lang.Scalar{Name: "Q"}
				default:
					return mkRef()
				}
			}
			return &lang.Binary{Op: lang.BinOp(r.Intn(3)), L: mkExpr(d - 1), R: mkExpr(d - 1)} // +,-,* keep arithmetic exact
		}
		for s := 0; s < nst; s++ {
			var lhs lang.Expr = mkRef()
			if r.Intn(5) == 0 {
				lhs = &lang.Scalar{Name: "Q"}
			}
			loop.Body = append(loop.Body, &lang.Assign{Label: "S" + string(rune('1'+s)), LHS: lhs, RHS: mkExpr(2)})
		}
		a := dep.Analyze(loop)
		p, err := Generate(syncop.Insert(a, syncop.Options{}))
		if err != nil {
			t.Logf("seed %d: generate: %v", seed, err)
			return false
		}
		n := 6
		ref := loop.SeedStore(n, 10, uint64(seed))
		got := ref.Clone()
		if err := loop.Run(ref); err != nil {
			return true
		}
		if err := p.Run(got); err != nil {
			t.Logf("seed %d: tac run: %v", seed, err)
			return false
		}
		if d := ref.Diff(got); d != "" {
			t.Logf("seed %d: diff: %s\n%s\n%s", seed, d, loop, p.Listing())
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestExecUndefinedTemp(t *testing.T) {
	p := &Program{}
	f := NewFrame(3, 1)
	in := &Instr{Op: Add, Dst: 2, A: TempOp(1), B: p.ConstOp(1)}
	if err := p.Exec(in, f, lang.NewStore()); err == nil {
		t.Error("expected use-of-undefined-temp error")
	}
}

func TestExecSyncNoops(t *testing.T) {
	p := &Program{}
	f := NewFrame(1, 1)
	st := lang.NewStore()
	if err := p.Exec(&Instr{Op: Send, Signal: p.Intern("S1")}, f, st); err != nil {
		t.Error(err)
	}
	if err := p.Exec(&Instr{Op: Wait, Signal: p.Intern("S1"), SigDist: 1}, f, st); err != nil {
		t.Error(err)
	}
}

func TestWaitsSendsHelpers(t *testing.T) {
	p := compile(t, fig1Source)
	waits, sends := 0, 0
	for _, in := range p.Instrs {
		switch in.Op {
		case Wait:
			waits++
		case Send:
			sends++
		}
	}
	if waits != 2 || sends != 1 {
		t.Errorf("waits, sends = %d, %d, want 2, 1", waits, sends)
	}
	if v := p.SendFor("S3"); v != 27 {
		t.Errorf("SendFor(S3) = %d, want 27", v)
	}
	if v := p.SendFor("S1"); v != -1 {
		t.Errorf("SendFor(S1) = %d, want -1", v)
	}
	if v := p.WaitFor(1, "S3", 1); v != 10 {
		t.Errorf("WaitFor(1, S3, 1) = %d, want 10", v)
	}
	if v := p.WaitFor(0, "S3", 1); v != -1 {
		t.Errorf("WaitFor(0, S3, 1) = %d, want -1", v)
	}
}

func TestListingFormat(t *testing.T) {
	p := compile(t, fig1Source)
	ls := p.Listing()
	for _, want := range []string{"1: Wait_Signal(S3, I-2)", "28: Send_Signal(S3)"} {
		if !strings.Contains(ls, want) {
			t.Errorf("listing missing %q:\n%s", want, ls)
		}
	}
}

func TestInstrUses(t *testing.T) {
	in := &Instr{Op: Add, Dst: 3, A: TempOp(1), B: TempOp(2)}
	u := in.Uses()
	if len(u) != 2 || u[0] != 1 || u[1] != 2 {
		t.Errorf("Uses = %v", u)
	}
	in2 := &Instr{Op: Add, Dst: 3, A: IVOp(), B: (&Program{}).ConstOp(1)}
	if len(in2.Uses()) != 0 {
		t.Errorf("Uses of IV+const = %v, want none", in2.Uses())
	}
}

func TestExecMove(t *testing.T) {
	// Move is part of the IR surface (used by hand-built programs and the
	// ISA backend) even though the loop lowering never emits it.
	p := &Program{}
	f := NewFrame(2, 1)
	st := lang.NewStore()
	if err := p.Exec(&Instr{Op: Move, Dst: 1, A: p.ConstOp(7)}, f, st); err != nil {
		t.Fatal(err)
	}
	if f.Temps[1] != 7 {
		t.Errorf("move const = %v", f.Temps[1])
	}
	if err := p.Exec(&Instr{Op: Move, Dst: 2, A: TempOp(1)}, f, st); err != nil {
		t.Fatal(err)
	}
	if f.Temps[2] != 7 {
		t.Errorf("move temp = %v", f.Temps[2])
	}
}

func TestOpcodeStrings(t *testing.T) {
	want := map[Opcode]string{
		Load: "load", Store: "store", LoadS: "loads", StoreS: "stores",
		Add: "add", Sub: "sub", Mul: "mul", Div: "div", Shl: "shl",
		Move: "move", Cmp: "cmp", Select: "select", Send: "send", Wait: "wait",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(op), op.String(), s)
		}
	}
	if Opcode(99).String() == "" {
		t.Error("unknown opcode should render a placeholder")
	}
}

func TestInstrPredicates(t *testing.T) {
	cases := []struct {
		in        Instr
		sync, mem bool
	}{
		{Instr{Op: Send}, true, false},
		{Instr{Op: Wait}, true, false},
		{Instr{Op: Load}, false, true},
		{Instr{Op: Store}, false, true},
		{Instr{Op: LoadS}, false, true},
		{Instr{Op: StoreS}, false, true},
		{Instr{Op: Add}, false, false},
		{Instr{Op: Select}, false, false},
	}
	for _, c := range cases {
		if c.in.IsSync() != c.sync {
			t.Errorf("%v.IsSync() = %v", c.in.Op, c.in.IsSync())
		}
		if c.in.IsMem() != c.mem {
			t.Errorf("%v.IsMem() = %v", c.in.Op, c.in.IsMem())
		}
	}
}

func TestInstrStringsAllForms(t *testing.T) {
	p := &Program{}
	x, s2 := p.Intern("X"), p.Intern("S2")
	cases := map[string]Instr{
		"t1 <- X":            {Op: LoadS, Dst: 1, Array: x},
		"X <- t2":            {Op: StoreS, Array: x, B: TempOp(2)},
		"t3 <- t1 - t2":      {Op: Sub, Dst: 3, A: TempOp(1), B: TempOp(2)},
		"t3 <- t1 / t2":      {Op: Div, Dst: 3, A: TempOp(1), B: TempOp(2)},
		"t3 <- t1":           {Op: Move, Dst: 3, A: TempOp(1)},
		"t3 <- t1 < t2":      {Op: Cmp, Dst: 3, A: TempOp(1), B: TempOp(2), Rel: lang.RelLT},
		"t4 <- t3 ? t1 : t2": {Op: Select, Dst: 4, A: TempOp(1), B: TempOp(2), C: TempOp(3)},
		"Wait_Signal(S2, I)": {Op: Wait, Signal: s2, SigDist: 0},
		"t3 <- _ + 2.5":      {Op: Add, Dst: 3, B: p.ConstOp(2.5)},
		"t3 <- 1e+100 * 7":   {Op: Mul, Dst: 3, A: p.ConstOp(1e100), B: p.ConstOp(7)},
	}
	for want, in := range cases {
		if got := p.Format(&in); got != want {
			t.Errorf("Format = %q, want %q", got, want)
		}
	}
	if p.Intern("X") != x || len(p.Names) != 3 || len(p.Consts) != 3 {
		t.Errorf("tables %q %v: a name or an immediate interned twice", p.Names, p.Consts)
	}
}

func TestExecFaults(t *testing.T) {
	p := &Program{}
	st := lang.NewStore()
	// Misaligned address: addr temp holding a non-multiple of 4.
	f := NewFrame(2, 1)
	if err := f.setTemp(1, 6); err != nil {
		t.Fatal(err)
	}
	if err := p.Exec(&Instr{Op: Load, Dst: 2, Array: p.Intern("A"), A: TempOp(1)}, f, st); err == nil {
		t.Error("misaligned load should fault")
	}
	// Non-finite subscript through Shl.
	f2 := NewFrame(2, 1)
	if err := f2.setTemp(1, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Exec(&Instr{Op: Shl, Dst: 2, A: TempOp(1)}, f2, st); err == nil {
		t.Error("non-finite shift input should fault")
	}
	// Out-of-range destination register.
	if err := p.Exec(&Instr{Op: Add, Dst: 99, A: p.ConstOp(1), B: p.ConstOp(2)}, NewFrame(2, 1), st); err == nil {
		t.Error("out-of-range destination should fault")
	}
	// An immediate outside the program's constant table.
	if err := p.Exec(&Instr{Op: Move, Dst: 1, A: Operand{Kind: Const, Reg: int32(len(p.Consts))}}, NewFrame(2, 1), st); err == nil {
		t.Error("out-of-range immediate should fault")
	}
}

func TestGenNegationAndIndirectIndex(t *testing.T) {
	// Unary minus in both value and index position, plus an indirect index
	// expression with arithmetic on the loaded value.
	src := "DO I = 1, N\nB[I] = -A[X[I]+1]\nC[-I+8] = E[I]\nENDDO"
	loop := lang.MustParse(src)
	p := compile(t, src)
	st := lang.NewStore()
	st.SetScalar("N", 3)
	for i := -10; i <= 12; i++ {
		st.SetElem("X", i, float64((i+10)%4))
		st.SetElem("A", i, float64(i*3))
		st.SetElem("E", i, float64(i+100))
	}
	ref := st.Clone()
	if err := loop.Run(ref); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(st); err != nil {
		t.Fatal(err)
	}
	if d := ref.Diff(st); d != "" {
		t.Errorf("negation/indirect mismatch: %s\n%s", d, p.Listing())
	}
}

func TestGenValueDivision(t *testing.T) {
	src := "DO I = 1, N\nA[I] = E[I] / F[I]\nENDDO"
	loop := lang.MustParse(src)
	p := compile(t, src)
	st := lang.NewStore()
	st.SetScalar("N", 3)
	for i := 1; i <= 3; i++ {
		st.SetElem("E", i, float64(12*i))
		st.SetElem("F", i, float64(i))
	}
	ref := st.Clone()
	if err := loop.Run(ref); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(st); err != nil {
		t.Fatal(err)
	}
	if d := ref.Diff(st); d != "" {
		t.Errorf("division mismatch: %s", d)
	}
}
