package tac_test

import (
	"path/filepath"
	"testing"

	"doacross/internal/scheditest"
	"doacross/internal/tac"
)

// refSendFor is the linear send lookup the program's index replaced, kept
// as the reference its lookups are held to.
func refSendFor(p *tac.Program, signal string) int {
	for i, in := range p.Instrs {
		if in.Op == tac.Send && p.Name(in.Signal) == signal {
			return i
		}
	}
	return -1
}

// refWaitFor is the linear wait lookup the program's index replaced.
func refWaitFor(p *tac.Program, stmt int, signal string, dist int) int {
	for i, in := range p.Instrs {
		if in.Op == tac.Wait && int(in.Stmt) == stmt && p.Name(in.Signal) == signal && int(in.SigDist) == dist {
			return i
		}
	}
	return -1
}

// TestLookupEquivalence holds the indexed lookups of every compiled
// program in the wide corpus and the size sweep up to 40 statements to the
// linear references, and so do the scanning lookups of the same program
// assembled by hand, without the index: SendFor on every statement label
// (sent or not), SendOf on every instruction, and WaitFor on every
// synchronized dependence and on every wait's own key.
func TestLookupEquivalence(t *testing.T) {
	sweep := 40
	if testing.Short() {
		sweep = 20
	}
	cases := scheditest.WideCorpus(t, filepath.Join("..", "..", "testdata", "kernels"), 120)
	for _, c := range append(cases, scheditest.SweepCorpus(t, sweep)...) {
		p := c.Graph.Prog
		bare := &tac.Program{Sync: p.Sync, Instrs: p.Instrs, NumTemps: p.NumTemps, Names: p.Names, Consts: p.Consts}
		for _, q := range []*tac.Program{p, bare} {
			for _, st := range p.Sync.Base.Body {
				if got, want := q.SendFor(st.Label), refSendFor(p, st.Label); got != want {
					t.Fatalf("%s: SendFor(%s) = %v, reference %v", c.Name, st.Label, got, want)
				}
			}
			for v, in := range p.Instrs {
				sig := p.Name(in.Signal)
				want := -1
				if in.Op == tac.Wait {
					want = refSendFor(p, sig)
				}
				if got := q.SendOf(v); got != want {
					t.Fatalf("%s: SendOf(%d) = %d, reference %d", c.Name, v, got, want)
				}
				if in.Op == tac.Wait {
					stmt, dist := int(in.Stmt), int(in.SigDist)
					if got, want := q.WaitFor(stmt, sig, dist), refWaitFor(p, stmt, sig, dist); got != want {
						t.Fatalf("%s: WaitFor(%d, %s, %d) = %d, reference %d", c.Name, stmt, sig, dist, got, want)
					}
				}
			}
			for k := range p.Sync.Synced {
				d := p.Sync.SyncedDep(k)
				label := p.Sync.Base.Body[d.Src.Stmt].Label
				if got, want := q.WaitFor(d.Snk.Stmt, label, d.Distance), refWaitFor(p, d.Snk.Stmt, label, d.Distance); got != want {
					t.Fatalf("%s: WaitFor(%d, %s, %d) = %d, reference %d", c.Name, d.Snk.Stmt, label, d.Distance, got, want)
				}
				if got, want := q.WaitFor(d.Snk.Stmt, label, d.Distance+1000), refWaitFor(p, d.Snk.Stmt, label, d.Distance+1000); got != want {
					t.Fatalf("%s: WaitFor of an absent wait = %d, reference %d", c.Name, got, want)
				}
			}
		}
	}
}
