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
	fmt.Fprintf(h, "%s temps=%d\n%s", name, p.NumTemps, tac.Listing(p.Instrs))
}

// TestGenerateIdentity holds Generate's published programs to what the
// lowering produced before its storage was resized: over the wide corpus
// and the size sweep, the listings match their recorded digests, Instrs is
// exactly as long as its capacity, and every value of ArrayInstr,
// ScalarInstr and MergeLoad is the published instruction of its ID.
// Generating another program, which reuses the pooled chunks, leaves an
// earlier program unchanged, also when goroutines generate at once.
func TestGenerateIdentity(t *testing.T) {
	parts, cases := identityCorpus(t)
	for i, part := range parts {
		h := sha256.New()
		for _, c := range cases[i] {
			p := c.Graph.Prog
			writeListing(h, c.Name, p)
			if len(p.Instrs) != cap(p.Instrs) {
				t.Errorf("%s: %d instructions with capacity %d", c.Name, len(p.Instrs), cap(p.Instrs))
			}
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
		want[i] = tac.Listing(c.Graph.Prog.Instrs)
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
				if got := tac.Listing(p.Instrs); got != want[k] {
					t.Errorf("worker %d, %s: listing\n%s want\n%s", w, all[k].Name, got, want[k])
					return
				}
				progs[k] = p
			}
			for k, p := range progs {
				if got := tac.Listing(p.Instrs); got != want[k] {
					t.Errorf("worker %d, %s: listing changed by later programs\n%s want\n%s", w, all[k].Name, got, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// checkMapped checks that every instruction the lookup maps name is the
// published instruction of its ID.
func checkMapped(t *testing.T, name string, p *tac.Program) {
	t.Helper()
	check := func(m string, in *tac.Instr) {
		if in.ID < 1 || in.ID > len(p.Instrs) || p.Instrs[in.ID-1] != in {
			t.Errorf("%s: %s maps to instruction %d (%s), not the published one", name, m, in.ID, in)
		}
	}
	for _, in := range p.ArrayInstr {
		check("ArrayInstr", in)
	}
	for _, in := range p.ScalarInstr {
		check("ScalarInstr", in)
	}
	for _, in := range p.MergeLoad {
		check("MergeLoad", in)
	}
}

// TestGenerateAfterFailure: a lowering that fails part way returns its
// chunks to the pool cleared, and the next program is generated whole.
func TestGenerateAfterFailure(t *testing.T) {
	loop := lang.MustParse("DO I = 1, N\nS1: A[I] = A[I-1] + B[I]\nS2: C[I] = A[I-2] * 2\nENDDO")
	sl := syncop.Insert(dep.Analyze(loop), syncop.Options{})
	want := tac.Listing(tac.MustGenerate(sl).Instrs)
	// A constant is no assignment target: the lowering fails at S2, after
	// S1's instructions were emitted.
	bad := *loop
	bad.Body = []*lang.Assign{loop.Body[0], {Label: "S2", LHS: &lang.Const{Value: 1, Text: "1"}, RHS: loop.Body[1].RHS}}
	badSync := *sl
	badSync.Base = &bad
	if _, err := tac.Generate(&badSync); err == nil {
		t.Fatal("lowering a constant assignment target succeeded")
	}
	if got := tac.Listing(tac.MustGenerate(sl).Instrs); got != want {
		t.Errorf("after a failed lowering:\n%s want\n%s", got, want)
	}
}
