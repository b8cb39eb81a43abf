package syncop

import (
	"slices"
	"strings"
	"testing"

	"doacross/internal/dep"
	"doacross/internal/lang"
)

const fig1Source = `
DO I = 1, N
  S1: B[I] = A[I-2] + E[I+1]
  S2: G[I-3] = A[I-1] * E[I+2]
  S3: A[I] = B[I] + C[I+3]
ENDDO
`

func insertFig1(t *testing.T) *Loop {
	t.Helper()
	a := dep.Analyze(lang.MustParse(fig1Source))
	return Insert(a, Options{})
}

func TestInsertFig1Shape(t *testing.T) {
	sl := insertFig1(t)
	sends, waits := sl.NumOps()
	if sends != 1 {
		t.Errorf("sends = %d, want 1 (single deduplicated Send_Signal(S3))", sends)
	}
	if waits != 2 {
		t.Errorf("waits = %d, want 2", waits)
	}
	// Wait_Signal(S3, I-2) before S1.
	if len(sl.Pre[0]) != 1 || sl.Pre[0][0].Src != "S3" || sl.Pre[0][0].Distance != 2 {
		t.Errorf("Pre[S1] = %v, want Wait_Signal(S3, I-2)", sl.Pre[0])
	}
	// Wait_Signal(S3, I-1) before S2.
	if len(sl.Pre[1]) != 1 || sl.Pre[1][0].Src != "S3" || sl.Pre[1][0].Distance != 1 {
		t.Errorf("Pre[S2] = %v, want Wait_Signal(S3, I-1)", sl.Pre[1])
	}
	// Send_Signal(S3) after S3.
	if len(sl.Post[2]) != 1 || sl.Post[2][0].Src != "S3" || sl.Post[2][0].Kind != Send {
		t.Errorf("Post[S3] = %v, want Send_Signal(S3)", sl.Post[2])
	}
}

func TestInsertFig1Rendering(t *testing.T) {
	s := insertFig1(t).String()
	for _, want := range []string{
		"DOACROSS I = 1, N",
		"Wait_Signal(S3, I-2)",
		"Wait_Signal(S3, I-1)",
		"Send_Signal(S3)",
		"END_DOACROSS",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	// Order: the distance-2 wait comes before S1, which comes before the
	// distance-1 wait.
	i2 := strings.Index(s, "Wait_Signal(S3, I-2)")
	i1 := strings.Index(s, "Wait_Signal(S3, I-1)")
	is1 := strings.Index(s, "B[I]")
	if !(i2 < is1 && is1 < i1) {
		t.Errorf("wait placement wrong:\n%s", s)
	}
}

func TestItemsOrder(t *testing.T) {
	sl := insertFig1(t)
	items := sl.Items()
	// wait, S1, wait, S2, S3, send
	var kinds []string
	for _, it := range items {
		switch {
		case it.Op != nil && it.Op.Kind == Wait:
			kinds = append(kinds, "wait")
		case it.Op != nil:
			kinds = append(kinds, "send")
		default:
			kinds = append(kinds, it.Stmt.Label)
		}
	}
	want := []string{"wait", "S1", "wait", "S2", "S3", "send"}
	if len(kinds) != len(want) {
		t.Fatalf("items = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("item %d = %s, want %s", i, kinds[i], want[i])
		}
	}
	// The ops are the loop's own, not copies.
	var ops []*Op
	for k := range sl.Base.Body {
		for i := range sl.Pre[k] {
			ops = append(ops, &sl.Pre[k][i])
		}
		for i := range sl.Post[k] {
			ops = append(ops, &sl.Post[k][i])
		}
	}
	var got []*Op
	for _, it := range items {
		if it.Op != nil {
			got = append(got, it.Op)
		}
	}
	if !slices.Equal(got, ops) {
		t.Errorf("item ops %p, want the loop's %p", got, ops)
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := insertFig1(t).Validate(); err != nil {
		t.Errorf("freshly inserted loop should validate: %v", err)
	}
}

func TestSignals(t *testing.T) {
	sigs := insertFig1(t).Signals()
	if len(sigs) != 1 || sigs[0] != "S3" {
		t.Errorf("signals = %v, want [S3]", sigs)
	}
}

func TestInsertDoallNoOps(t *testing.T) {
	a := dep.Analyze(lang.MustParse("DO I = 1, N\nA[I] = E[I]\nENDDO"))
	sl := Insert(a, Options{})
	sends, waits := sl.NumOps()
	if sends != 0 || waits != 0 {
		t.Errorf("DOALL loop got %d sends, %d waits", sends, waits)
	}
}

func TestInsertFlowOnly(t *testing.T) {
	// Anti dependence only: A[I+1] read in S1, written in S2.
	a := dep.Analyze(lang.MustParse("DO I = 1, N\nB[I] = A[I+1]\nA[I] = E[I]\nENDDO"))
	full := Insert(a, Options{})
	flowOnly := Insert(a, Options{FlowOnly: true})
	fs, fw := full.NumOps()
	if fs == 0 || fw == 0 {
		t.Errorf("full sync should cover the anti dependence, got %d/%d", fs, fw)
	}
	s, w := flowOnly.NumOps()
	if s != 0 || w != 0 {
		t.Errorf("FlowOnly should skip anti deps, got %d sends %d waits", s, w)
	}
}

func TestInsertReduction(t *testing.T) {
	a := dep.Analyze(lang.MustParse("DO I = 1, N\nS = S + A[I]\nENDDO"))
	sl := Insert(a, Options{FlowOnly: true})
	sends, waits := sl.NumOps()
	if sends != 1 || waits != 1 {
		t.Fatalf("reduction: %d sends %d waits, want 1/1", sends, waits)
	}
	// The wait precedes the statement, the send follows it — a same-statement
	// pair (the tightest possible LBD).
	if sl.Pre[0][0].Distance != 1 {
		t.Errorf("reduction wait distance = %d, want 1", sl.Pre[0][0].Distance)
	}
}

func TestInsertSharedSourceDedup(t *testing.T) {
	// One source statement feeding three sinks at different distances: one
	// send, three waits.
	src := `DO I = 1, N
S1: B[I] = A[I-1]
S2: C[I] = A[I-2]
S3: D[I] = A[I-3]
S4: A[I] = E[I]
ENDDO`
	a := dep.Analyze(lang.MustParse(src))
	sl := Insert(a, Options{})
	sends, waits := sl.NumOps()
	if sends != 1 {
		t.Errorf("sends = %d, want 1", sends)
	}
	if waits != 3 {
		t.Errorf("waits = %d, want 3", waits)
	}
}

func TestInsertWaitDedup(t *testing.T) {
	// Two reads of A[I-1] in the same statement: a single wait suffices.
	a := dep.Analyze(lang.MustParse("DO I = 1, N\nB[I] = A[I-1] + A[I-1]\nA[I] = E[I]\nENDDO"))
	sl := Insert(a, Options{})
	if len(sl.Pre[0]) != 1 {
		t.Errorf("Pre[S1] = %v, want exactly one wait", sl.Pre[0])
	}
}

func TestOpString(t *testing.T) {
	send := Op{Kind: Send, Src: "S3"}
	if send.String() != "Send_Signal(S3)" {
		t.Errorf("send = %q", send.String())
	}
	wait := Op{Kind: Wait, Src: "S3", Distance: 2}
	if wait.String() != "Wait_Signal(S3, I-2)" {
		t.Errorf("wait = %q", wait.String())
	}
	wait0 := Op{Kind: Wait, Src: "S1", Distance: 0}
	if wait0.String() != "Wait_Signal(S1, I)" {
		t.Errorf("wait0 = %q", wait0.String())
	}
}
