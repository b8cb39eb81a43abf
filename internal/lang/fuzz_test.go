package lang_test

import (
	"os"
	"path/filepath"
	"testing"

	"doacross/internal/dep"
	"doacross/internal/dfg"
	"doacross/internal/lang"
	"doacross/internal/syncop"
	"doacross/internal/tac"
)

// fuzzSeeds collects the seed corpus: every kernel under testdata/kernels,
// the raw example program sources (they embed loop nests and exercise the
// lexer's rejection paths), and a set of inline edge cases.
func fuzzSeeds(f *testing.F) []string {
	f.Helper()
	seeds := []string{
		"DO I = 1, N\nA[I] = A[I-1] + 1\nENDDO",
		"DOACROSS I = 1, 10\n S3: A[I] = B[I]*C[I+3]\nEND_DOACROSS",
		"DO I = 1, N\nIF (E[I] > 0) A[I] = A[I-1]\nENDDO",
		"DO I = 1, N\nS = S + A(I)\nENDDO",
		"DO I = 1, N\nX = (1 + 2) * -3.5 / Q\nENDDO",
		"DO I = 1, N\nA[2*I-4] = B[I] ! comment\nENDDO",
		"do i = 1, n\na[i] = 1; b[i] = 2\nenddo",
		"DO I = 1, N\nIF (A[I] != B[I]) C[I] = 0\nENDDO",
		"",
		"DO",
		"DO I = 1, N\nA[I] = \nENDDO",
	}
	for _, pattern := range []string{
		filepath.Join("..", "..", "testdata", "kernels", "*.loop"),
		filepath.Join("..", "..", "examples", "*", "main.go"),
	} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, string(b))
		}
	}
	return seeds
}

// FuzzParse feeds arbitrary input through the whole front end: parsing must
// never panic, anything accepted must print as the fmt reference printer
// prints it and survive a print/parse round trip unchanged, and the
// accepted loop must flow through dependence analysis,
// synchronization insertion, TAC generation and DFG construction without
// panicking. The synchronized DOACROSS rendering must also be stable: the
// reparsed base loop inserts the same Wait/Send operations.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		loop, err := lang.Parse(src)
		if err != nil {
			return
		}
		if d := printerMismatch(loop); d != "" {
			t.Fatalf("printer differs from the reference on %q: %s", src, d)
		}
		printed := loop.String()
		again, err := lang.Parse(printed)
		if err != nil {
			t.Fatalf("accepted input prints to rejected source:\ninput: %q\nprinted:\n%s\nerror: %v", src, printed, err)
		}
		if again.String() != printed {
			t.Fatalf("print/parse not a fixpoint:\n%s\nvs\n%s", printed, again.String())
		}
		if len(loop.Body) > 64 {
			// Dependence analysis is quadratic in the body; bound the work
			// per input so the fuzzer spends its budget on the parser.
			return
		}
		// The compile pipeline may reject the loop (e.g. unschedulable
		// shapes) but must never panic.
		analysis := dep.Analyze(loop)
		sync := syncop.Insert(analysis, syncop.Options{})
		doacross := sync.String()
		// Round trip: the same source must synchronize identically.
		if sync2 := syncop.Insert(dep.Analyze(again), syncop.Options{}); sync2.String() != doacross {
			t.Fatalf("DoacrossSource not stable under reparse:\n%s\nvs\n%s", doacross, sync2.String())
		}
		prog, err := tac.Generate(sync)
		if err != nil {
			return
		}
		if _, err := dfg.Build(prog, analysis); err != nil {
			return
		}
	})
}
