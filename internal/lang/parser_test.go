package lang

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// fig1Source is the paper's Fig. 1(a) loop.
const fig1Source = `
DO I = 1, N
  S1: B[I] = A[I-2] + E[I+1]
  S2: G[I-3] = A[I-1] * E[I+2]
  S3: A[I] = B[I] + C[I+3]
ENDDO
`

func TestParseFig1(t *testing.T) {
	loop, err := Parse(fig1Source)
	if err != nil {
		t.Fatal(err)
	}
	if loop.Var != "I" {
		t.Errorf("induction var = %q, want I", loop.Var)
	}
	if loop.Doacross {
		t.Error("plain DO parsed as DOACROSS")
	}
	if len(loop.Body) != 3 {
		t.Fatalf("got %d statements, want 3", len(loop.Body))
	}
	labels := []string{"S1", "S2", "S3"}
	for i, want := range labels {
		if loop.Body[i].Label != want {
			t.Errorf("stmt %d label = %q, want %q", i, loop.Body[i].Label, want)
		}
	}
	s2 := loop.Body[1]
	lhs, ok := s2.LHS.(*ArrayRef)
	if !ok || lhs.Name != "G" {
		t.Fatalf("S2 LHS = %v, want G[...]", s2.LHS)
	}
	c, off, ok := AffineIndex(lhs.Index, "I")
	if !ok || c != 1 || off != -3 {
		t.Errorf("S2 LHS subscript affine = (%d,%d,%v), want (1,-3,true)", c, off, ok)
	}
}

func TestParseDoacrossKeyword(t *testing.T) {
	loop, err := Parse("DOACROSS I = 1, 10\nA[I] = A[I-1]\nEND_DOACROSS")
	if err != nil {
		t.Fatal(err)
	}
	if !loop.Doacross {
		t.Error("DOACROSS flag not set")
	}
}

func TestParseAutoLabels(t *testing.T) {
	loop, err := Parse("DO I = 1, N\nA[I] = 1\nX: B[I] = 2\nC[I] = 3\nENDDO")
	if err != nil {
		t.Fatal(err)
	}
	got := []string{loop.Body[0].Label, loop.Body[1].Label, loop.Body[2].Label}
	want := []string{"S1", "X", "S2"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("label %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestParseAutoLabelSkipsExplicit(t *testing.T) {
	loop, err := Parse("DO I = 1, N\nS2: A[I] = 1\nB[I] = 2\nC[I] = 3\nENDDO")
	if err != nil {
		t.Fatal(err)
	}
	// Auto labels must not collide with the explicit S2.
	seen := map[string]bool{}
	for _, st := range loop.Body {
		if seen[st.Label] {
			t.Fatalf("duplicate label %q", st.Label)
		}
		seen[st.Label] = true
	}
}

func TestParseParenSubscripts(t *testing.T) {
	loop, err := Parse("DO I = 1, N\nA(I) = B(I-1) + 1\nENDDO")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := loop.Body[0].LHS.(*ArrayRef); !ok {
		t.Errorf("A(I) should parse as array ref, got %T", loop.Body[0].LHS)
	}
}

func TestParsePrecedence(t *testing.T) {
	loop, err := Parse("DO I = 1, N\nX = 1 + 2 * 3 - 4 / 2\nENDDO")
	if err != nil {
		t.Fatal(err)
	}
	v, err := EvalExpr(loop.Body[0].RHS, NewStore(), "I", 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Errorf("1+2*3-4/2 = %v, want 5", v)
	}
}

func TestParseParentheses(t *testing.T) {
	loop, err := Parse("DO I = 1, N\nX = (1 + 2) * 3\nENDDO")
	if err != nil {
		t.Fatal(err)
	}
	v, err := EvalExpr(loop.Body[0].RHS, NewStore(), "I", 1)
	if err != nil {
		t.Fatal(err)
	}
	if v != 9 {
		t.Errorf("(1+2)*3 = %v, want 9", v)
	}
}

func TestParseUnaryMinus(t *testing.T) {
	loop, err := Parse("DO I = 1, N\nX = -I + 2\nENDDO")
	if err != nil {
		t.Fatal(err)
	}
	v, err := EvalExpr(loop.Body[0].RHS, NewStore(), "I", 5)
	if err != nil {
		t.Fatal(err)
	}
	if v != -3 {
		t.Errorf("-I+2 at I=5 = %v, want -3", v)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"missing ENDDO", "DO I = 1, N\nA[I] = 1\n"},
		{"missing assign", "DO I = 1, N\nA[I] 1\nENDDO"},
		{"nested loop", "DO I = 1, N\nDO J = 1, N\nENDDO\nENDDO"},
		{"keyword variable", "DO DO = 1, N\nENDDO"},
		{"trailing junk", "DO I = 1, N\nA[I] = 1\nENDDO\nB = 2"},
		{"dup labels", "DO I = 1, N\nX: A[I] = 1\nX: B[I] = 2\nENDDO"},
		{"unclosed subscript", "DO I = 1, N\nA[I = 1\nENDDO"},
		{"garbage header", "FOR I = 1, N\nENDDO"},
		{"bracket expr", "DO I = 1, N\nX = [1]\nENDDO"},
		{"mismatched brackets", "DO I = 1, N\nX = (1]\nENDDO"},
		{"empty", ""},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestParsePrintRoundTripFig1(t *testing.T) {
	loop := MustParse(fig1Source)
	reparsed, err := Parse(loop.String())
	if err != nil {
		t.Fatalf("re-parse of printed loop failed: %v\n%s", err, loop)
	}
	if loop.String() != reparsed.String() {
		t.Errorf("print/parse not a fixpoint:\n%s\nvs\n%s", loop, reparsed)
	}
}

// randomExpr builds a random expression over the given variables.
func randomExpr(r *rand.Rand, depth int, arrays, scalars []string, iv string) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return &Const{Value: float64(r.Intn(20)), Text: ""}
		case 1:
			return &Scalar{Name: scalars[r.Intn(len(scalars))]}
		case 2:
			return &Scalar{Name: iv}
		default:
			return &ArrayRef{
				Name:  arrays[r.Intn(len(arrays))],
				Index: &Binary{Op: OpAdd, L: &Scalar{Name: iv}, R: &Const{Value: float64(r.Intn(7) - 3)}},
			}
		}
	}
	switch r.Intn(5) {
	case 0:
		return &Neg{X: randomExpr(r, depth-1, arrays, scalars, iv)}
	default:
		return &Binary{
			Op: BinOp(r.Intn(4)),
			L:  randomExpr(r, depth-1, arrays, scalars, iv),
			R:  randomExpr(r, depth-1, arrays, scalars, iv),
		}
	}
}

// RandomLoop builds a structurally valid random loop (exported for reuse by
// other packages' property tests via the testing build).
func randomLoop(r *rand.Rand) *Loop {
	arrays := []string{"A", "B", "C"}
	scalars := []string{"P", "Q"}
	n := 1 + r.Intn(5)
	loop := &Loop{Var: "I", Lo: &Const{Value: 1}, Hi: &Scalar{Name: "N"}}
	for s := 0; s < n; s++ {
		var lhs Expr
		if r.Intn(4) == 0 {
			lhs = &Scalar{Name: scalars[r.Intn(len(scalars))]}
		} else {
			lhs = &ArrayRef{
				Name:  arrays[r.Intn(len(arrays))],
				Index: &Binary{Op: OpAdd, L: &Scalar{Name: "I"}, R: &Const{Value: float64(r.Intn(7) - 3)}},
			}
		}
		loop.Body = append(loop.Body, &Assign{RHS: randomExpr(r, 3, arrays, scalars, "I"), LHS: lhs})
	}
	// Label like the parser would.
	for i, st := range loop.Body {
		st.Label = "S" + itoa(i+1)
	}
	return loop
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestQuickPrintParseRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		loop := randomLoop(r)
		src := loop.String()
		reparsed, err := Parse(src)
		if err != nil {
			t.Logf("seed %d: parse error %v on:\n%s", seed, err, src)
			return false
		}
		if reparsed.String() != src {
			t.Logf("seed %d: not a fixpoint:\n%s\nvs\n%s", seed, src, reparsed)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickRoundTripPreservesSemantics(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		loop := randomLoop(r)
		reparsed, err := Parse(loop.String())
		if err != nil {
			return false
		}
		n := 6
		st1 := loop.SeedStore(n, 8, uint64(seed)+1)
		st2 := st1.Clone()
		if err := loop.Run(st1); err != nil {
			// Division by zero etc. can produce runtime eval errors only for
			// non-finite subscripts; both versions must fail alike.
			err2 := reparsed.Run(st2)
			return err2 != nil
		}
		if err := reparsed.Run(st2); err != nil {
			return false
		}
		if d := st1.Diff(st2); d != "" {
			t.Logf("seed %d: diff %s", seed, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLoopStringContainsLabels(t *testing.T) {
	loop := MustParse(fig1Source)
	s := loop.String()
	for _, want := range []string{"S1:", "S2:", "S3:", "DO I = 1, N", "ENDDO"} {
		if !strings.Contains(s, want) {
			t.Errorf("printed loop missing %q:\n%s", want, s)
		}
	}
}

// TestKeywordCaseAllocs: keywords match in any case without upper-casing a
// copy of each identifier, so a loop written in lower case parses with the
// allocations of the same loop in upper case.
func TestKeywordCaseAllocs(t *testing.T) {
	const upper = "DO I = 1, N\nS1: A[I] = A[I-1] + B[I]\nS2: IF (A[I] > 0) C[I] = A[I-2] * 2\nENDDO"
	lower := strings.ToLower(upper)
	allocs := func(src string) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := Parse(src); err != nil {
				t.Fatal(err)
			}
		})
	}
	up, low := allocs(upper), allocs(lower)
	t.Logf("upper case: %.0f allocations, lower case: %.0f", up, low)
	if low != up {
		t.Errorf("the lower-case loop parses with %.0f allocations, the upper-case one with %.0f", low, up)
	}
}
