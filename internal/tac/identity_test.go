package tac_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"path/filepath"
	"sync"
	"testing"

	"doacross/internal/dep"
	"doacross/internal/lang"
	"doacross/internal/scheditest"
	"doacross/internal/syncop"
	"doacross/internal/tac"
)

// listingDigests are the SHA-256 digests of identityCorpus's listings
// (name, temp count and numbered listing of every program), recorded before
// Generate published its instructions in one exactly sized block: the
// lowering must not have changed.
var listingDigests = map[string]string{
	"wide":    "0f592fdd05d215a8d1c948202ca57b2529be200fc39b791ba387dc8314573ad4",
	"sweep40": "200ddd3f429dc203fe84f9f84befde8245ebec3a2cff27c114523ae74f72dfcb",
	"sweep80": "974113fedd75ba1cb6a3ef74c0b86ab41985a19fe7b7391794901139ccd9bda5",
}

// identityCorpus returns the wide corpus, then the size sweep up to 40
// statements, then (without -short) its 80-statement loops, each part under
// its listingDigests key.
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

func writeListing(h hash.Hash, name string, p *tac.Program) {
	fmt.Fprintf(h, "%s temps=%d\n%s", name, p.NumTemps, p.Listing())
}

// TestGenerateIdentity holds Generate's published programs to what the
// lowering produced before its storage was resized and its instructions
// compacted: over the wide corpus and the size sweep, the listings match
// their recorded digests, Instrs and the name and constant tables are
// exactly as long as their capacities and hold each name and constant
// once, and every value of ArrayInstr, ScalarInstr and MergeLoad indexes
// the memory instruction of its ID. Generating another program, which
// reuses the pooled scratch, leaves an earlier program unchanged, also
// when goroutines generate at once.
func TestGenerateIdentity(t *testing.T) {
	parts, cases := identityCorpus(t)
	for i, part := range parts {
		h := sha256.New()
		for _, c := range cases[i] {
			p := c.Graph.Prog
			writeListing(h, c.Name, p)
			if len(p.Instrs) != cap(p.Instrs) || len(p.Names) != cap(p.Names) || len(p.Consts) != cap(p.Consts) {
				t.Errorf("%s: %d instructions, %d names and %d constants with capacities %d, %d and %d", c.Name,
					len(p.Instrs), len(p.Names), len(p.Consts), cap(p.Instrs), cap(p.Names), cap(p.Consts))
			}
			checkTables(t, c.Name, p)
			checkMapped(t, c.Name, p)
		}
		got := hex.EncodeToString(h.Sum(nil))
		t.Logf("%s: %d programs, listing digest %s", part, len(cases[i]), got)
		if want := listingDigests[part]; got != want {
			t.Errorf("%s: listing digest %s, recorded %s", part, got, want)
		}
	}

	// Regenerate every program of the first two parts from its synchronized
	// loop on four goroutines at once: each listing matches the corpus's,
	// and stays as it was after its goroutine has generated the rest.
	all := append(append([]scheditest.Case(nil), cases[0]...), cases[1]...)
	want := make([]string, len(all))
	for i, c := range all {
		want[i] = c.Graph.Prog.Listing()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			progs := make([]*tac.Program, len(all))
			for i := range all {
				k := (i + w*len(all)/4) % len(all)
				p, err := tac.Generate(all[k].Graph.Prog.Sync)
				if err != nil {
					t.Error(err)
					return
				}
				if got := p.Listing(); got != want[k] {
					t.Errorf("worker %d, %s: listing\n%s want\n%s", w, all[k].Name, got, want[k])
					return
				}
				progs[k] = p
			}
			for k, p := range progs {
				if got := p.Listing(); got != want[k] {
					t.Errorf("worker %d, %s: listing changed by later programs\n%s want\n%s", w, all[k].Name, got, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// checkTables checks that the name table starts with the empty name and
// holds every other name once, and the constant table every value once.
func checkTables(t *testing.T, name string, p *tac.Program) {
	t.Helper()
	if len(p.Names) == 0 || p.Names[0] != "" {
		t.Errorf("%s: name table %q does not start with the empty name", name, p.Names)
	}
	names := map[string]bool{}
	for _, n := range p.Names[1:] {
		if n == "" || names[n] {
			t.Errorf("%s: name table %q holds %q twice or empty", name, p.Names, n)
		}
		names[n] = true
	}
	consts := map[float64]bool{}
	for _, c := range p.Consts {
		if consts[c] {
			t.Errorf("%s: constant table %v holds %v twice", name, p.Consts, c)
		}
		consts[c] = true
	}
}

// checkMapped checks that every instruction the lookup maps name is a
// memory instruction of the program whose ID is its index plus one.
func checkMapped(t *testing.T, name string, p *tac.Program) {
	t.Helper()
	check := func(m string, v int32) {
		if v < 0 || int(v) >= len(p.Instrs) || !p.Instrs[v].IsMem() || p.Instrs[v].ID != v+1 {
			t.Errorf("%s: %s maps to instruction index %d, not a published memory instruction", name, m, v)
		}
	}
	for _, v := range p.ArrayInstr {
		check("ArrayInstr", v)
	}
	for _, v := range p.ScalarInstr {
		check("ScalarInstr", v)
	}
	for _, v := range p.MergeLoad {
		check("MergeLoad", v)
	}
}

// TestGenerateAfterFailure: a lowering that fails part way returns its
// chunks to the pool cleared, and the next program is generated whole.
func TestGenerateAfterFailure(t *testing.T) {
	loop := lang.MustParse("DO I = 1, N\nS1: A[I] = A[I-1] + B[I]\nS2: C[I] = A[I-2] * 2\nENDDO")
	sl := syncop.Insert(dep.Analyze(loop), syncop.Options{})
	want := tac.MustGenerate(sl).Listing()
	// A constant is no assignment target: the lowering fails at S2, after
	// S1's instructions were emitted.
	bad := *loop
	bad.Body = []*lang.Assign{loop.Body[0], {Label: "S2", LHS: &lang.Const{Value: 1, Text: "1"}, RHS: loop.Body[1].RHS}}
	badSync := *sl
	badSync.Base = &bad
	if _, err := tac.Generate(&badSync); err == nil {
		t.Fatal("lowering a constant assignment target succeeded")
	}
	if got := tac.MustGenerate(sl).Listing(); got != want {
		t.Errorf("after a failed lowering:\n%s want\n%s", got, want)
	}
}
