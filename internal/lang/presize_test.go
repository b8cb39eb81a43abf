package lang_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"doacross/internal/lang"
	"doacross/internal/loopgen"
	"doacross/internal/perfect"
)

// TestPresizeIdentity: the AST storage of every loop is sized exactly from
// its own tokens. Over the Perfect suites, every loop of the kernel corpus
// (multi-loop files loop by loop) and loopgen loops of every shape with
// 1-40 statements, each node slab and the statement list are as long as
// their capacities, and the loops print as they do parsed on their own.
func TestPresizeIdentity(t *testing.T) {
	type source struct {
		name, src string
		loops     int
	}
	var srcs []source
	for _, su := range perfect.MustSuites() {
		for _, l := range su.Loops {
			srcs = append(srcs, source{su.Profile.Name, l.Source, 1})
		}
	}
	kernels, err := filepath.Glob(filepath.Join("..", "..", "testdata", "kernels", "*.loop"))
	if err != nil || len(kernels) == 0 {
		t.Fatalf("kernel corpus: %v (%d files)", err, len(kernels))
	}
	for _, path := range kernels {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, source{filepath.Base(path), string(b), len(lang.MustParseFile(string(b)).Loops)})
	}
	for _, sh := range loopgen.Shapes() {
		for stmts := 1; stmts <= 40; stmts++ {
			srcs = append(srcs, source{sh.String(), loopgen.Generate(uint64(stmts), loopgen.Options{Shape: sh, Stmts: stmts}), 1})
		}
	}
	for _, s := range srcs {
		file := lang.MustParseFile(s.src)
		for k := 0; k < s.loops; k++ {
			made, allotted, err := lang.SlabFill(s.src, k)
			if err != nil {
				t.Fatalf("%s loop %d: %v", s.name, k, err)
			}
			if !slices.Equal(made, allotted) {
				t.Errorf("%s loop %d: made %v entries (binary, array, scalar, constant, negation, assignment nodes, statements), allotted %v", s.name, k, made, allotted)
			}
			if got, want := file.Loops[k].String(), lang.MustParse(file.Loops[k].String()).String(); got != want {
				t.Errorf("%s loop %d prints\n%s parsed with its file, and\n%s on its own", s.name, k, got, want)
			}
		}
	}
}
