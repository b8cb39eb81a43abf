package dfg

import (
	"strings"
	"testing"

	"doacross/internal/dep"
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

func buildSrc(t testing.TB, src string) *Graph {
	t.Helper()
	a := dep.Analyze(lang.MustParse(src))
	p := tac.MustGenerate(syncop.Insert(a, syncop.Options{}))
	g, err := Build(p, a)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func hasArc(g *Graph, from, to int, kind ArcKind) bool {
	for _, a := range g.Arcs {
		if int(a.From) == from && int(a.To) == to && a.Kind == kind {
			return true
		}
	}
	return false
}

// Instruction IDs below are the ones checked in tac's TestFig2Shape (1-based);
// node indices are ID-1.
func TestFig3SyncArcs(t *testing.T) {
	g := buildSrc(t, fig1Source)
	// Wait(S3,I-2) [1] -> load A[t3] [5]
	if !hasArc(g, 0, 4, WaitToSnk) {
		t.Error("missing wait->snk arc 1->5")
	}
	// Wait(S3,I-1) [11] -> load A[t12] [16]
	if !hasArc(g, 10, 15, WaitToSnk) {
		t.Error("missing wait->snk arc 11->16")
	}
	// store A[t1] [27] -> Send(S3) [28]
	if !hasArc(g, 26, 27, SrcToSend) {
		t.Error("missing src->send arc 27->28")
	}
}

func TestFig3MemArc(t *testing.T) {
	g := buildSrc(t, fig1Source)
	// Loop-independent flow: store B[t1] [10] -> load B[t1] [22].
	if !hasArc(g, 9, 21, Mem) {
		t.Error("missing mem arc 10->22 (B[I])")
	}
}

func TestFig3Partition(t *testing.T) {
	g := buildSrc(t, fig1Source)
	comps := g.Components()
	var sigwat, wat, sig, plain int
	for _, c := range comps {
		switch c.Kind {
		case Sigwat:
			sigwat++
		case Wat:
			wat++
		case Sig:
			sig++
		case Plain:
			plain++
		}
	}
	// The paper's Fig. 3: one Sigwat graph (S1+S3 with both waits' partner
	// send) and one Wat graph (S2 with Wait(S3, I-1)).
	if sigwat != 1 {
		t.Errorf("sigwat components = %d, want 1\n%s", sigwat, g.SyncInfo())
	}
	if wat != 1 {
		t.Errorf("wat components = %d, want 1\n%s", wat, g.SyncInfo())
	}
	if sig != 0 {
		t.Errorf("sig components = %d, want 0", sig)
	}
	// S1's and S3's nodes share a component via the B[I] mem arc; node 0
	// (wait1) and node 27 (send) must be together.
	if g.ComponentOf(0) != g.ComponentOf(27) {
		t.Error("wait1 and send should share the Sigwat component")
	}
	// Wait2 (node 10) is in the Wat component with S2's body.
	if g.ComponentOf(10) == g.ComponentOf(27) {
		t.Error("wait2 should be in a separate Wat component")
	}
	if g.ComponentOf(10) != g.ComponentOf(15) {
		t.Error("wait2 and its sink load should share the Wat component")
	}
}

func TestFig3SyncPath(t *testing.T) {
	g := buildSrc(t, fig1Source)
	paths := g.SyncPaths()
	if len(paths) != 1 {
		t.Fatalf("sync paths = %d, want 1 (only the Sigwat pair)", len(paths))
	}
	p := paths[0]
	if p.Distance != 2 || g.Prog.Name(p.Signal) != "S3" {
		t.Errorf("path meta = d%d %s, want d2 S3", p.Distance, g.Prog.Name(p.Signal))
	}
	// Paper path (our numbering): 1,5,9,10,22,26,27,28 -> indices 0,4,8,9,21,25,26,27.
	want := []int32{0, 4, 8, 9, 21, 25, 26, 27}
	if len(p.Nodes) != len(want) {
		t.Fatalf("path = %v, want %v", p.Nodes, want)
	}
	for i := range want {
		if p.Nodes[i] != want[i] {
			t.Errorf("path[%d] = %d, want %d (full %v)", i, p.Nodes[i], want[i], p.Nodes)
		}
	}
}

func TestPairArcsFig1(t *testing.T) {
	g := buildSrc(t, fig1Source)
	arcs := g.PairArcs()
	// Only the Wat-graph wait (node 10) pairs across components with the
	// send (node 27).
	if len(arcs) != 1 {
		t.Fatalf("pair arcs = %v, want exactly one", arcs)
	}
	if arcs[0].From != 27 || arcs[0].To != 10 {
		t.Errorf("pair arc = %v, want 28->11 (send->wait2)", arcs[0])
	}
}

func TestTopologicalValid(t *testing.T) {
	g := buildSrc(t, fig1Source)
	order, err := g.Topological()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, g.N())
	for i, v := range order {
		pos[v] = i
	}
	for _, a := range g.Arcs {
		if pos[a.From] >= pos[a.To] {
			t.Errorf("arc %v violated in topological order", a)
		}
	}
}

func TestCriticalPathLengths(t *testing.T) {
	g := buildSrc(t, fig1Source)
	cp, err := g.CriticalPathLengths(func(in *tac.Instr) int {
		if in.Op == tac.Mul {
			return 3
		}
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first wait heads the longest chain through the B store/load to the
	// send: 1(wait)+1(load5)+1(add9)+1(store10)+1(load22)+1(add26)+1(store27)+1(send28) = 8.
	if cp[0] != 8 {
		t.Errorf("critical path from wait1 = %d, want 8", cp[0])
	}
	// A sink node has just its own latency.
	if cp[27] != 1 {
		t.Errorf("critical path from send = %d, want 1", cp[27])
	}
}

func TestAncestors(t *testing.T) {
	g := buildSrc(t, fig1Source)
	anc := g.Ancestors(4) // load A[t3] [5]
	// Ancestors: wait1 [1], t2 [3], t3 [4] -> indices 0, 2, 3.
	for _, want := range []int{0, 2, 3} {
		if !anc[want] {
			t.Errorf("ancestors of node 4 missing %d: %v", want, anc)
		}
	}
	if len(anc) != 3 {
		t.Errorf("ancestors of node 4 = %v, want exactly {0,2,3}", anc)
	}
}

func TestDoallGraphNoSync(t *testing.T) {
	g := buildSrc(t, "DO I = 1, N\nA[I] = E[I] + 1\nENDDO")
	if len(g.SyncPaths()) != 0 {
		t.Error("DOALL loop should have no sync paths")
	}
	for _, c := range g.Components() {
		if c.Kind != Plain {
			t.Errorf("DOALL loop has %v component", c.Kind)
		}
	}
	if len(g.PairArcs()) != 0 {
		t.Error("DOALL loop should have no pair arcs")
	}
}

func TestReductionSigwat(t *testing.T) {
	g := buildSrc(t, "DO I = 1, N\nS = S + A[I]\nENDDO")
	paths := g.SyncPaths()
	if len(paths) != 1 {
		t.Fatalf("reduction paths = %d, want 1", len(paths))
	}
	// wait -> loadS S -> storeS -> send (the distance-0 anti-dependence arc
	// loadS->storeS shortcuts the add): 4 nodes.
	if len(paths[0].Nodes) != 4 {
		t.Errorf("reduction path = %v, want 4 nodes", paths[0].Nodes)
	}
}

func TestSyncPathOrdering(t *testing.T) {
	// Two Sigwat chains: X (distance 1) and Y (distance 4). |SP| similar, so
	// the d=1 path must sort first ((n/d)·|SP| larger).
	src := `DO I = 1, N
S1: X[I] = X[I-1] + A[I]
S2: Y[I] = Y[I-4] + B[I]
ENDDO`
	g := buildSrc(t, src)
	paths := g.SyncPaths()
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	if paths[0].Distance != 1 || paths[1].Distance != 4 {
		t.Errorf("path order = d%d, d%d; want d1 first", paths[0].Distance, paths[1].Distance)
	}
	if paths[0].Weight() <= paths[1].Weight() {
		t.Error("weights not descending")
	}
}

func TestGraphDeterminism(t *testing.T) {
	g1 := buildSrc(t, fig1Source)
	g2 := buildSrc(t, fig1Source)
	if g1.SyncInfo() != g2.SyncInfo() {
		t.Errorf("graph build not deterministic: %s vs %s", g1.SyncInfo(), g2.SyncInfo())
	}
	if len(g1.Arcs) != len(g2.Arcs) {
		t.Fatal("arc count differs")
	}
	for i := range g1.Arcs {
		if g1.Arcs[i] != g2.Arcs[i] {
			t.Errorf("arc %d differs: %v vs %v", i, g1.Arcs[i], g2.Arcs[i])
		}
	}
}

func TestDOTExport(t *testing.T) {
	g := buildSrc(t, fig1Source)
	dot := g.DOT()
	for _, want := range []string{
		"digraph dfg",
		"invtriangle", // waits
		"triangle",    // send
		"style=dashed",
		"cluster_0",
		"Sigwat",
		"Wat",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// One node line per instruction (cluster labels use label= too, so count
	// the node form specifically).
	if got := strings.Count(dot, " [label=\""); got != g.N() {
		t.Errorf("DOT has %d node labels, want %d", got, g.N())
	}
}
