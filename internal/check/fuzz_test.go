package check_test

import (
	"testing"

	"doacross"
	"doacross/internal/check"
	"doacross/internal/core"
	"doacross/internal/dep"
	"doacross/internal/diag"
	"doacross/internal/lang"
	"doacross/internal/loopgen"
	"doacross/internal/syncop"
	"doacross/internal/tac"
)

// fuzzCorpus are the loops FuzzVerify mutates schedules of. Fuzzing varies
// the mutation, not the source: the target exercises the verifier, not the
// compiler (FuzzParse already covers the front end).
var fuzzCorpus = []string{
	paperSrc,
	condSrc,
	"DO I = 1, N\n  S1: A[I] = A[I-1] + B[I]\nENDDO",
	"DO I = 1, N\n  S1: A[I] = B[I-3] / C[I]\n  S2: B[I] = A[I-2] * A[I-1]\nENDDO",
}

// FuzzVerify checks four properties of the verifier under arbitrary
// schedule mutations: it never panics, any mutation that breaks a derived
// dependence edge is flagged (mutation kill), a Verifier prepared once for
// the program reports exactly the one-shot Verify's diagnostics, and with
// a wait's distance mutated to 0 or below the deadlock check reaches the
// reference's verdict. The unmutated schedule must always be accepted.
func FuzzVerify(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(1), uint16(2), uint16(7))
	f.Add(uint8(1), uint8(1), uint16(9), uint16(0), uint16(3))
	f.Add(uint8(2), uint8(2), uint16(4), uint16(4), uint16(4))
	f.Add(uint8(3), uint8(0), uint16(0), uint16(65535), uint16(1))
	f.Fuzz(func(t *testing.T, srcIdx, machineIdx uint8, a, b, c uint16) {
		src := fuzzCorpus[int(srcIdx)%len(fuzzCorpus)]
		ms := machines()
		m := ms[int(machineIdx)%len(ms)]
		p, err := doacross.Compile(src)
		if err != nil {
			t.Fatalf("corpus loop does not compile: %v", err)
		}
		s, err := p.ScheduleSync(m)
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		v := check.NewVerifier(p.Code)
		verify := func(s *core.Schedule) diag.List {
			got, want := v.Verify(s), check.Verify(s)
			if !sameDiags(got, want) {
				t.Fatalf("Verifier disagrees with Verify\n got %s\nwant %s", got, want)
			}
			return want
		}
		if l := verify(s); check.Err(l) != nil {
			t.Fatalf("organic schedule rejected:\n%s", l)
		}

		// Arbitrary mutation: reassign a few cycles pseudo-randomly from
		// the fuzz ints. Verify must never panic, whatever comes out.
		mut := cloneSchedule(s)
		n := len(mut.Cycle)
		rng := uint32(a)<<16 | uint32(b) + uint32(c)*2654435761
		next := func() int {
			rng ^= rng << 13
			rng ^= rng >> 17
			rng ^= rng << 5
			return int(rng % uint32(n*2+4))
		}
		for i := 0; i < int(c%5)+1; i++ {
			mut.Cycle[next()%n] = next()
		}
		rebuildRows(mut)
		verify(mut)

		// Distance mutation on top of it: a wait at distance 0 or below is
		// what sends the deadlock check into its cycle search.
		var waits []int
		for v, in := range p.Code.Instrs {
			if in.Op == tac.Wait {
				waits = append(waits, v)
			}
		}
		if len(waits) > 0 {
			dmut := withWaitDistance(mut, waits[int(a)%len(waits)], -int(c%3))
			sameDeadlockVerdict(t, "distance mutation", dmut)
			check.Verify(dmut)
		}

		// Deletion mutation: always flagged.
		if n > 1 {
			mut = cloneSchedule(s)
			mut.Cycle = mut.Cycle[:n-1-int(a)%(n-1)]
			rebuildRows(mut)
			if check.Err(verify(mut)) == nil {
				t.Fatal("truncated schedule accepted")
			}
		}

		// Edge-targeted mutation kill: breaking one derived dependence or
		// synchronization-condition edge must be flagged.
		edges, err := check.Edges(p.Code)
		if err != nil {
			t.Fatal(err)
		}
		if len(edges) > 0 {
			e := edges[int(b)%len(edges)]
			mut = cloneSchedule(s)
			mut.Cycle[e.To] = mut.Cycle[e.From]
			rebuildRows(mut)
			if check.Err(verify(mut)) == nil {
				t.Fatalf("broken %v edge %d->%d accepted", e.Kind, e.From, e.To)
			}
		}
	})
}

// FuzzLintSync holds LintSync to the reference linter on the compiler-
// inserted synchronization of generated loops: the same findings with the
// same text, in the same order.
func FuzzLintSync(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(3), false)
	f.Add(uint64(7), uint8(1), uint8(6), true)
	f.Add(uint64(42), uint8(2), uint8(9), false)
	f.Add(uint64(0xED6E), uint8(5), uint8(11), true)
	f.Fuzz(func(t *testing.T, seed uint64, shape, stmts uint8, constBounds bool) {
		shapes := loopgen.Shapes()
		src := loopgen.Generate(seed, loopgen.Options{
			Shape:       shapes[int(shape)%len(shapes)],
			Stmts:       1 + int(stmts)%12,
			ConstBounds: constBounds,
		})
		loop, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("generated loop does not parse: %v\n%s", err, src)
		}
		sl := syncop.Insert(dep.Analyze(loop), syncop.Options{})
		if got, want := check.LintSync(sl), refLintSync(sl); !sameDiags(got, want) {
			t.Fatalf("LintSync differs from the reference on\n%s\n got %s\nwant %s", src, got, want)
		}
	})
}
