package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"doacross/internal/dep"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/lang"
	"doacross/internal/syncop"
	"doacross/internal/tac"
)

const fig1Source = `
DO I = 1, N
  S1: B[I] = A[I-2] + E[I+1]
  S2: G[I-3] = A[I-1] * E[I+2]
  S3: A[I] = B[I] + C[I+3]
ENDDO
`

func buildGraph(t testing.TB, src string) *dfg.Graph {
	t.Helper()
	a := dep.Analyze(lang.MustParse(src))
	p := tac.MustGenerate(syncop.Insert(a, syncop.Options{}))
	g, err := dfg.Build(p, a)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestListScheduleValid(t *testing.T) {
	g := buildGraph(t, fig1Source)
	for _, cfg := range append(dlx.PaperConfigs(), dlx.Uniform(4, 1)) {
		s, err := List(g, cfg, ProgramOrder)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v\n%s", cfg.Name, err, s.Listing())
		}
	}
}

func TestSyncScheduleValid(t *testing.T) {
	g := buildGraph(t, fig1Source)
	for _, cfg := range append(dlx.PaperConfigs(), dlx.Uniform(4, 1)) {
		s, err := Sync(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v\n%s", cfg.Name, err, s.Listing())
		}
	}
}

// TestFig4 reproduces the paper's worked example: at 4-issue, list
// scheduling leaves two LBDs and a long wait→send span; the new scheduler
// converts the Wat-graph pair to LFD, leaving exactly one LBD whose span is
// much shorter.
func TestFig4(t *testing.T) {
	g := buildGraph(t, fig1Source)
	cfg := dlx.Uniform(4, 1)
	list, err := List(g, cfg, ProgramOrder)
	if err != nil {
		t.Fatal(err)
	}
	sync, err := Sync(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lr, sr := Report(list), Report(sync)
	if lr.NumLBD != 2 {
		t.Errorf("list LBDs = %d, want 2\n%s", lr.NumLBD, list.Listing())
	}
	if sr.NumLBD != 1 {
		t.Errorf("sync LBDs = %d, want 1\n%s", sr.NumLBD, sync.Listing())
	}
	if sr.NumLFD != 1 {
		t.Errorf("sync LFDs = %d, want 1 (Wat pair converted)", sr.NumLFD)
	}
	// The per-iteration recurrence slope must improve substantially.
	if sync.MaxLBDStall() >= list.MaxLBDStall() {
		t.Errorf("sync stall %.2f not better than list stall %.2f\nlist:\n%s\nsync:\n%s",
			sync.MaxLBDStall(), list.MaxLBDStall(), list.Listing(), sync.Listing())
	}
}

func TestListHoistsWaits(t *testing.T) {
	// The pathology the paper describes: with enough issue slots the list
	// scheduler issues both waits in cycle 0.
	g := buildGraph(t, fig1Source)
	s, err := List(g, dlx.Uniform(4, 1), ProgramOrder)
	if err != nil {
		t.Fatal(err)
	}
	waitCycles := []int{}
	for v, in := range s.Prog.Instrs {
		if in.Op == tac.Wait {
			waitCycles = append(waitCycles, s.Cycle[v])
		}
	}
	if len(waitCycles) != 2 || waitCycles[0] != 0 || waitCycles[1] != 0 {
		t.Errorf("list wait cycles = %v, want both at 0", waitCycles)
	}
}

func TestSyncConvertsWatPairToLFD(t *testing.T) {
	g := buildGraph(t, fig1Source)
	s, err := Sync(g, dlx.Uniform(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.PairSpans() {
		if p.Distance == 1 { // the Wat-graph pair (Wait_Signal(S3, I-1))
			if p.LBD() {
				t.Errorf("Wat pair should be LFD: wait@%d send@%d\n%s",
					p.WaitCycle, p.SendCycle, s.Listing())
			}
		}
	}
}

func TestScheduleOrderExecutesCorrectly(t *testing.T) {
	// Executing instructions in issue order must compute the same iteration
	// result as program order.
	loop := lang.MustParse(fig1Source)
	a := dep.Analyze(loop)
	p := tac.MustGenerate(syncop.Insert(a, syncop.Options{}))
	g, err := dfg.Build(p, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func() (*Schedule, error){
		func() (*Schedule, error) { return List(g, dlx.Standard(2, 1), ProgramOrder) },
		func() (*Schedule, error) { return Sync(g, dlx.Standard(4, 2)) },
	} {
		s, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		ref := loop.SeedStore(5, 8, 11)
		got := ref.Clone()
		for i := 1; i <= 5; i++ {
			if err := p.ExecIteration(nil, i, ref); err != nil {
				t.Fatal(err)
			}
			if err := p.ExecIteration(s.Order(), i, got); err != nil {
				t.Fatalf("%s order execution: %v\n%s", s.Method, err, s.Listing())
			}
		}
		if d := ref.Diff(got); d != "" {
			t.Errorf("%s: issue-order execution diverges: %s", s.Method, d)
		}
	}
}

func TestIssueWidthRespected(t *testing.T) {
	g := buildGraph(t, fig1Source)
	s, err := List(g, dlx.Standard(2, 2), ProgramOrder)
	if err != nil {
		t.Fatal(err)
	}
	for c, row := range s.Rows {
		if len(row) > 2 {
			t.Errorf("cycle %d issues %d > 2", c, len(row))
		}
	}
}

func TestMultiplierLatencyRespected(t *testing.T) {
	g := buildGraph(t, fig1Source)
	s, err := List(g, dlx.Standard(4, 2), ProgramOrder)
	if err != nil {
		t.Fatal(err)
	}
	// The G store (consumer of the multiply) must issue >= 3 cycles after it.
	var mulC, storeC = -1, -1
	for v, in := range s.Prog.Instrs {
		if in.Op == tac.Mul {
			mulC = s.Cycle[v]
		}
		if in.Op == tac.Store && s.Prog.Name(in.Array) == "G" {
			storeC = s.Cycle[v]
		}
	}
	if mulC < 0 || storeC < 0 {
		t.Fatal("mul or G store not found")
	}
	if storeC < mulC+3 {
		t.Errorf("G store at %d, mul at %d: latency 3 violated", storeC, mulC)
	}
}

func TestFUContention(t *testing.T) {
	// 8 independent loads with one load/store unit: at least 8 cycles even
	// at 4-issue.
	src := "DO I = 1, N\nA[I] = B[I] + C[I] + D[I] + E[I] + F[I] + G[I] + H[I]\nENDDO"
	g := buildGraph(t, src)
	s, err := List(g, dlx.Standard(4, 1), ProgramOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Length() < 8 {
		t.Errorf("length = %d, want >= 8 (7 loads + 1 store on one unit)", s.Length())
	}
	s2, err := List(g, dlx.Standard(4, 2), ProgramOrder)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Length() >= s.Length() {
		t.Errorf("doubling load/store units did not help: %d vs %d", s2.Length(), s.Length())
	}
}

func TestCriticalPathPriorityValid(t *testing.T) {
	g := buildGraph(t, fig1Source)
	s, err := List(g, dlx.Standard(4, 1), CriticalPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestAblationsValid(t *testing.T) {
	g := buildGraph(t, fig1Source)
	cfg := dlx.Standard(4, 1)
	opts := []SyncOptions{
		{NoPairArcs: true},
		{NoLazyWaits: true},
		{NoSPPriority: true},
		{AscendingSP: true},
		{NoPairArcs: true, NoLazyWaits: true, NoSPPriority: true},
	}
	for i, o := range opts {
		s, err := SyncWithOptions(g, cfg, o)
		if err != nil {
			t.Fatalf("ablation %d: %v", i, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("ablation %d: %v", i, err)
		}
	}
}

func TestLazyWaitNoCycleOnIndirect(t *testing.T) {
	// Indirect subscripts make sink operands depend on other loads; the
	// lazification must not create cycles.
	g := buildGraph(t, "DO I = 1, N\nA[I] = A[X[I]] + A[I-1]\nENDDO")
	s, err := Sync(g, dlx.Standard(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDoallSchedulesEquivalent(t *testing.T) {
	g := buildGraph(t, "DO I = 1, N\nA[I] = E[I] + 1\nB[I] = F[I] * 2\nENDDO")
	cfg := dlx.Standard(4, 2)
	l, err := List(g, cfg, ProgramOrder)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Sync(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.Length() != s.Length() {
		t.Errorf("DOALL: list %d cycles vs sync %d cycles (should match)", l.Length(), s.Length())
	}
	if s.NumLBD() != 0 || l.NumLBD() != 0 {
		t.Error("DOALL loop has no sync pairs")
	}
}

func randomDoacrossLoop(r *rand.Rand) *lang.Loop {
	arrays := []string{"A", "B", "C", "D"}
	loop := &lang.Loop{Var: "I", Lo: &lang.Const{Value: 1}, Hi: &lang.Scalar{Name: "N"}}
	nst := 1 + r.Intn(5)
	ref := func(maxBack int) lang.Expr {
		off := r.Intn(maxBack+3) - maxBack
		return &lang.ArrayRef{Name: arrays[r.Intn(len(arrays))],
			Index: &lang.Binary{Op: lang.OpAdd, L: &lang.Scalar{Name: "I"}, R: &lang.Const{Value: float64(off)}}}
	}
	for s := 0; s < nst; s++ {
		rhs := &lang.Binary{Op: lang.BinOp(r.Intn(3)), L: ref(4), R: ref(4)}
		st := &lang.Assign{
			Label: "S" + string(rune('1'+s)),
			LHS:   &lang.ArrayRef{Name: arrays[r.Intn(len(arrays))], Index: &lang.Binary{Op: lang.OpAdd, L: &lang.Scalar{Name: "I"}, R: &lang.Const{Value: float64(r.Intn(3))}}},
			RHS:   rhs,
		}
		// Occasionally guard the statement (type-1 control dependence).
		if r.Intn(4) == 0 {
			st.Cond = &lang.Cond{Op: lang.RelOp(r.Intn(6)), L: ref(4), R: &lang.Const{Value: float64(r.Intn(5) - 2)}}
		}
		loop.Body = append(loop.Body, st)
	}
	return loop
}

// TestQuickSchedulesValidAndSemanticsPreserved is the central property test:
// for random DOACROSS loops, both schedulers produce validated schedules
// whose issue order computes exactly the program-order iteration result.
func TestQuickSchedulesValidAndSemanticsPreserved(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120}
	machines := []dlx.Config{dlx.Standard(2, 1), dlx.Standard(4, 1), dlx.Standard(4, 2)}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		loop := randomDoacrossLoop(r)
		a := dep.Analyze(loop)
		p, err := tac.Generate(syncop.Insert(a, syncop.Options{}))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		g, err := dfg.Build(p, a)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		m := machines[r.Intn(len(machines))]
		list, err := List(g, m, ProgramOrder)
		if err != nil {
			t.Logf("seed %d list: %v", seed, err)
			return false
		}
		syncS, err := Sync(g, m)
		if err != nil {
			t.Logf("seed %d sync: %v", seed, err)
			return false
		}
		for _, s := range []*Schedule{list, syncS} {
			if err := s.Validate(); err != nil {
				t.Logf("seed %d %s: %v\n%s", seed, s.Method, err, s.Listing())
				return false
			}
			ref := loop.SeedStore(4, 10, uint64(seed))
			got := ref.Clone()
			for i := 1; i <= 4; i++ {
				if err := p.ExecIteration(nil, i, ref); err != nil {
					return true // non-finite data path; skip
				}
				if err := p.ExecIteration(s.Order(), i, got); err != nil {
					t.Logf("seed %d %s: %v", seed, s.Method, err)
					return false
				}
			}
			if d := ref.Diff(got); d != "" {
				t.Logf("seed %d %s: %s", seed, s.Method, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickBestNeverWorse checks the paper's "never degrades" claim as
// operationalized by Best: its worst per-iteration LBD recurrence is never
// worse than plain list scheduling's.
func TestQuickBestNeverWorse(t *testing.T) {
	cfg := &quick.Config{MaxCount: 120}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		loop := randomDoacrossLoop(r)
		a := dep.Analyze(loop)
		p, err := tac.Generate(syncop.Insert(a, syncop.Options{}))
		if err != nil {
			return false
		}
		g, err := dfg.Build(p, a)
		if err != nil {
			return false
		}
		m := dlx.Standard(4, 1)
		list, err1 := List(g, m, ProgramOrder)
		best, err2 := Best(g, m)
		if err1 != nil || err2 != nil {
			t.Logf("seed %d: %v %v", seed, err1, err2)
			return false
		}
		if best.MaxLBDStall() > list.MaxLBDStall()+1e-9 {
			t.Logf("seed %d: best stall %.3f > list %.3f", seed, best.MaxLBDStall(), list.MaxLBDStall())
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSyncUsuallyWins samples a fixed set of random DOACROSS loops and
// checks the pure synchronization-path heuristic beats or ties list
// scheduling on the vast majority (it is a heuristic; rare adversarial
// shapes may lose, which Best papers over).
func TestSyncUsuallyWins(t *testing.T) {
	wins, ties, losses, total := 0, 0, 0, 0
	m := dlx.Standard(4, 1)
	for seed := int64(0); seed < 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		loop := randomDoacrossLoop(r)
		a := dep.Analyze(loop)
		p, err := tac.Generate(syncop.Insert(a, syncop.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		g, err := dfg.Build(p, a)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.SyncPaths()) == 0 && len(g.PairArcs()) == 0 {
			continue // nothing for the technique to act on
		}
		list, err1 := List(g, m, ProgramOrder)
		syncS, err2 := Sync(g, m)
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: %v %v", seed, err1, err2)
		}
		total++
		ls, ss := list.MaxLBDStall(), syncS.MaxLBDStall()
		switch {
		case ss < ls-1e-9:
			wins++
		case ss > ls+1e-9:
			losses++
		default:
			ties++
		}
	}
	if total < 50 {
		t.Fatalf("only %d synchronized loops in sample", total)
	}
	if losses*5 > total {
		t.Errorf("sync heuristic loses too often: %d wins, %d ties, %d losses of %d", wins, ties, losses, total)
	}
	if wins == 0 {
		t.Error("sync heuristic never wins on random DOACROSS loops")
	}
	t.Logf("sync vs list on %d loops: %d wins, %d ties, %d losses", total, wins, ties, losses)
}

func TestScheduleStringShape(t *testing.T) {
	g := buildGraph(t, fig1Source)
	s, err := List(g, dlx.Uniform(4, 1), ProgramOrder)
	if err != nil {
		t.Fatal(err)
	}
	str := s.String()
	if len(str) == 0 || str[0] != '(' {
		t.Errorf("String() = %q, want Fig.4-style rows", str)
	}
}
