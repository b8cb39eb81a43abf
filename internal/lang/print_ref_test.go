package lang_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doacross/internal/lang"
	"doacross/internal/loopgen"
	"doacross/internal/perfect"
	"doacross/internal/scheditest"
	"doacross/internal/unroll"
)

// The fmt-based rendering the append printer replaced, kept as the
// reference FuzzParse and TestPrinterEquivalence hold the printer to. It
// recurses through its own functions, never through the String methods
// under test.

func refPrecedence(e lang.Expr) int {
	switch v := e.(type) {
	case *lang.Binary:
		if v.Op == lang.OpAdd || v.Op == lang.OpSub {
			return 1
		}
		return 2
	case *lang.Neg:
		return 3
	default:
		return 4
	}
}

func refExpr(e lang.Expr) string {
	switch v := e.(type) {
	case *lang.Const:
		if v.Text != "" {
			return v.Text
		}
		if v.Value == float64(int64(v.Value)) {
			return fmt.Sprintf("%d", int64(v.Value))
		}
		return fmt.Sprintf("%g", v.Value)
	case *lang.Scalar:
		return v.Name
	case *lang.ArrayRef:
		return v.Name + "[" + refExpr(v.Index) + "]"
	case *lang.Binary:
		var sb strings.Builder
		lp := refPrecedence(v.L) < refPrecedence(v)
		rp := refPrecedence(v.R) <= refPrecedence(v)
		if lp {
			sb.WriteByte('(')
		}
		sb.WriteString(refExpr(v.L))
		if lp {
			sb.WriteByte(')')
		}
		sb.WriteString(v.Op.String())
		if rp {
			sb.WriteByte('(')
		}
		sb.WriteString(refExpr(v.R))
		if rp {
			sb.WriteByte(')')
		}
		return sb.String()
	case *lang.Neg:
		if refPrecedence(v.X) < refPrecedence(v) {
			return "-(" + refExpr(v.X) + ")"
		}
		return "-" + refExpr(v.X)
	}
	panic(fmt.Sprintf("refExpr: unknown expression type %T", e))
}

func refCond(c *lang.Cond) string {
	return refExpr(c.L) + " " + c.Op.String() + " " + refExpr(c.R)
}

func refAssign(a *lang.Assign) string {
	s := refExpr(a.LHS) + " = " + refExpr(a.RHS)
	if a.Cond != nil {
		return "IF (" + refCond(a.Cond) + ") " + s
	}
	return s
}

func refSyncOp(o *lang.SyncOp, iv string) string {
	if !o.Wait {
		return fmt.Sprintf("Send_Signal(%s)", o.Signal)
	}
	switch {
	case o.Dist > 0:
		return fmt.Sprintf("Wait_Signal(%s, %s-%d)", o.Signal, iv, o.Dist)
	case o.Dist < 0:
		return fmt.Sprintf("Wait_Signal(%s, %s+%d)", o.Signal, iv, -o.Dist)
	}
	return fmt.Sprintf("Wait_Signal(%s, %s)", o.Signal, iv)
}

func refLoop(l *lang.Loop) string {
	var sb strings.Builder
	kw := "DO"
	if l.Doacross {
		kw = "DOACROSS"
	}
	fmt.Fprintf(&sb, "%s %s = %s, %s\n", kw, l.Var, refExpr(l.Lo), refExpr(l.Hi))
	syncs := 0
	emit := func(anchor int) {
		for ; syncs < len(l.Syncs) && l.Syncs[syncs].At <= anchor; syncs++ {
			fmt.Fprintf(&sb, "  %s\n", refSyncOp(l.Syncs[syncs], l.Var))
		}
	}
	for k, st := range l.Body {
		emit(k)
		fmt.Fprintf(&sb, "  %s: %s\n", st.Label, refAssign(st))
	}
	emit(len(l.Body))
	sb.WriteString("ENDDO\n")
	return sb.String()
}

// printerMismatch compares every String method on l with the reference and
// describes the first difference, or returns "".
func printerMismatch(l *lang.Loop) string {
	if got, want := l.String(), refLoop(l); got != want {
		return fmt.Sprintf("Loop.String:\n%s\nreference:\n%s", got, want)
	}
	for _, st := range l.Body {
		if got, want := st.String(), refAssign(st); got != want {
			return fmt.Sprintf("Assign.String: %q, reference %q", got, want)
		}
		if st.Cond != nil {
			if got, want := st.Cond.String(), refCond(st.Cond); got != want {
				return fmt.Sprintf("Cond.String: %q, reference %q", got, want)
			}
		}
		for _, e := range []lang.Expr{st.LHS, st.RHS} {
			if got, want := e.String(), refExpr(e); got != want {
				return fmt.Sprintf("%T.String: %q, reference %q", e, got, want)
			}
		}
	}
	for _, o := range l.Syncs {
		if got, want := o.String(l.Var), refSyncOp(o, l.Var); got != want {
			return fmt.Sprintf("SyncOp.String: %q, reference %q", got, want)
		}
	}
	return ""
}

// printerCorpus collects the loops TestPrinterEquivalence checks: the
// synthetic Perfect suites, every kernel under testdata/kernels and the
// linter's sources, scheditest.WideCorpus with each loop's synchronized
// rendering parsed back (explicit Send/Wait ops), the kernels unrolled by 2
// and 3 (literals without source text), and loopgen loops of every shape
// with 1 to 12 statements under both bound styles.
func printerCorpus(t *testing.T) []*lang.Loop {
	var loops []*lang.Loop
	suites, err := perfect.Suites()
	if err != nil {
		t.Fatal(err)
	}
	for _, su := range suites {
		for _, l := range su.Loops {
			loops = append(loops, l.AST)
		}
	}
	for _, pattern := range []string{
		filepath.Join("..", "..", "testdata", "kernels", "*.loop"),
		filepath.Join("..", "check", "testdata", "*.loop"),
	} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			f, err := lang.ParseFile(string(b))
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			for _, l := range f.Loops {
				loops = append(loops, l)
				for _, k := range []int{2, 3} {
					if u, err := unroll.Unroll(l, k); err == nil {
						loops = append(loops, u.Loop)
					}
				}
			}
		}
	}
	count := 120
	if testing.Short() {
		count = 40
	}
	for _, c := range scheditest.WideCorpus(t, filepath.Join("..", "..", "testdata", "kernels"), count) {
		loops = append(loops, c.Graph.Prog.Sync.Base)
		synced, err := lang.Parse(c.Graph.Prog.Sync.String())
		if err != nil {
			t.Fatalf("%s: synchronized rendering does not parse: %v", c.Name, err)
		}
		loops = append(loops, synced)
	}
	seeds := 32
	if testing.Short() {
		seeds = 8
	}
	for _, sh := range loopgen.Shapes() {
		for stmts := 1; stmts <= 12; stmts++ {
			for seed := 0; seed < seeds; seed++ {
				opt := loopgen.Options{Shape: sh, Stmts: stmts, ConstBounds: seed%2 == 1}
				src := loopgen.Generate(uint64(0x9817+seed*131+stmts), opt)
				l, err := lang.Parse(src)
				if err != nil {
					t.Fatalf("loopgen %s/%d/%d: %v", sh, stmts, seed, err)
				}
				loops = append(loops, l)
			}
		}
	}
	return loops
}

// TestPrinterEquivalence holds the append printer to the fmt reference on
// every loop of printerCorpus, through every String method.
func TestPrinterEquivalence(t *testing.T) {
	loops := printerCorpus(t)
	for i, l := range loops {
		if d := printerMismatch(l); d != "" {
			t.Fatalf("loop %d: %s", i, d)
		}
	}
	t.Logf("%d loops print identically", len(loops))
}

// TestPrinterLiterals covers the literal forms no source text spells: the
// values of synthesized constants, integral or not, huge, tiny, negative
// zero and non-finite.
func TestPrinterLiterals(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -7, 2.5, -0.125, 1e20, 1e21, 1e-7,
		123456789.25, math.MaxInt64, math.MinInt64, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()} {
		e := &lang.Binary{Op: lang.OpSub, L: &lang.Neg{X: &lang.Const{Value: v}},
			R: &lang.Binary{Op: lang.OpMul, L: &lang.Scalar{Name: "I"}, R: &lang.Const{Value: v}}}
		if got, want := e.String(), refExpr(e); got != want {
			t.Errorf("%v: %q, reference %q", v, got, want)
		}
	}
}
