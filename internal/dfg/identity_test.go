package dfg_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"path/filepath"
	"testing"

	"doacross/internal/dfg"
	"doacross/internal/scheditest"
)

// graphDigests are the SHA-256 digests of identityCorpus's graphs
// (writeGraph of every graph), recorded while adjacency was still kept as
// one slice per node: the graph's content and every order a consumer can
// observe must not have changed.
var graphDigests = map[string]string{
	"wide":    "78a3e2c88f7fca90f7c729a0e6853e71f55edc6a919d6820d07ff666ebea1267",
	"sweep40": "96ef6c0901db161bcce0c0eb76c5cce241da3461b645ab9b19e78f6749645f0b",
	"sweep80": "9ebe865f32a27a8048f166cf362b86450c6714f32e8699e763260607348faf16",
}

// identityCorpus returns the wide corpus, then the size sweep up to 40
// statements, then (without -short) its 80-statement loops, each part under
// its graphDigests key.
func identityCorpus(t *testing.T) (parts []string, cases [][]scheditest.Case) {
	t.Helper()
	wide := scheditest.WideCorpus(t, filepath.Join("..", "..", "testdata", "kernels"), 120)
	sweep := scheditest.SweepCorpus(t, 80)
	n40 := 0
	for n40 < len(sweep) && len(sweep[n40].Graph.Prog.Sync.Base.Body) <= 40 {
		n40++
	}
	parts, cases = []string{"wide", "sweep40"}, [][]scheditest.Case{wide, sweep[:n40]}
	if !testing.Short() {
		parts, cases = append(parts, "sweep80"), append(cases, sweep[n40:])
	}
	return parts, cases
}

// writeGraph renders everything a consumer can read of a graph: its arcs in
// order, every node's successors and predecessors in order, its
// components with their node, wait and send lists, every node's component,
// the synchronization paths in scheduling order, the cross-component pair
// arcs, the summary line and the fingerprint.
func writeGraph(h hash.Hash, name string, g *dfg.Graph) {
	fmt.Fprintf(h, "%s n=%d arcs=%d\n", name, g.N(), len(g.Arcs))
	for _, a := range g.Arcs {
		fmt.Fprintf(h, "%d>%d:%s ", a.From, a.To, a.Kind)
	}
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(h, "\n%d succ=%v pred=%v comp=%d", v, g.Succ(v), g.Pred(v), g.ComponentOf(v))
	}
	for _, c := range g.Components() {
		fmt.Fprintf(h, "\ncomp %d %s nodes=%v waits=%v sends=%v", c.ID, c.Kind, c.Nodes, c.Waits, c.Sends)
	}
	for _, p := range g.SyncPaths() {
		fmt.Fprintf(h, "\npath %d>%d %v d=%d %s comp=%d", p.Wait, p.Send, p.Nodes, p.Distance, g.Prog.Name(p.Signal), p.Comp)
	}
	for _, a := range g.PairArcs() {
		fmt.Fprintf(h, "\npair %d>%d:%s", a.From, a.To, a.Kind)
	}
	fp := g.Fingerprint()
	fmt.Fprintf(h, "\n%s\n%s\n", g.SyncInfo(), hex.EncodeToString(fp[:]))
}

// TestGraphIdentity holds Build's graphs to their recorded digests over the
// wide corpus and the size sweep, so that a change to how the graph is
// stored cannot change an arc, an adjacency order, a component, a path or a
// cache key.
func TestGraphIdentity(t *testing.T) {
	parts, cases := identityCorpus(t)
	for i, part := range parts {
		h := sha256.New()
		for _, c := range cases[i] {
			writeGraph(h, c.Name, c.Graph)
		}
		got := hex.EncodeToString(h.Sum(nil))
		t.Logf("%s: %d graphs, digest %s", part, len(cases[i]), got)
		if want := graphDigests[part]; got != want {
			t.Errorf("%s: graph digest %s, recorded %s", part, got, want)
		}
	}
}
