package pipeline

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"doacross/internal/dlx"
	"doacross/internal/lang"
	"doacross/internal/obs"
	"doacross/internal/scheditest"
)

// kernelRequests returns every loop of testdata/kernels at two seeded trip
// counts in [10000, 40000], the second round after the first: the shape of
// one schedbench batch-longtrip op.
func kernelRequests(tb testing.TB, seed int64) []Request {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "kernels", "*.loop"))
	if err != nil {
		tb.Fatal(err)
	}
	var loops []*lang.Loop
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		f, err := lang.ParseFile(string(src))
		if err != nil {
			tb.Fatalf("%s: %v", p, err)
		}
		loops = append(loops, f.Loops...)
	}
	if len(loops) == 0 {
		tb.Fatal("no kernels under testdata/kernels")
	}
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, 2*len(loops))
	for k := range reqs {
		n := 10000 + rng.Intn(30001)
		reqs[k] = Request{Name: fmt.Sprintf("kernel%d@%d", k%len(loops), n), Loop: loops[k%len(loops)], N: n}
	}
	return reqs
}

// BenchmarkKernelsBatch times the kernels batch on the paper's 4-issue
// machine with a fresh cache per op, so each loop compiles and schedules
// once and simulates twice, at 1 and 2 workers.
func BenchmarkKernelsBatch(b *testing.B) {
	reqs := kernelRequests(b, 1)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			metrics := NewMetrics()
			for i := 0; i < b.N; i++ {
				batch, err := Run(reqs, Options{Workers: workers, Cache: NewCache(), Metrics: metrics,
					Machines: []dlx.Config{dlx.Standard(4, 1)}})
				if err != nil {
					b.Fatal(err)
				}
				if err := batch.FirstErr(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// requestShapes renders each request's span subtree in a snapshot as
// spanShape does, in request order, so that batches whose requests ran on
// several workers compare equal.
func requestShapes(t *testing.T, spans []obs.Span) []string {
	t.Helper()
	tree := obs.BuildTree(spans)
	var out []string
	for _, s := range spans {
		if s.Kind != obs.KindRequest {
			continue
		}
		sub := []obs.Span{s}
		for k := 0; k < len(sub); k++ {
			sub = append(sub, tree.Children[sub[k].ID]...)
		}
		idx := -1
		for _, a := range s.Attrs {
			if a.Key == "index" {
				idx = int(a.Int)
			}
		}
		if idx < 0 {
			t.Fatalf("request span %q has no index", s.Name)
		}
		if idx >= len(out) {
			out = append(out, make([]string, idx+1-len(out))...)
		}
		out[idx] = spanShape(sub)
	}
	return out
}

// TestScratchReuseAcrossBatches: batches take their scheduler scratches
// from one pool, so a later batch schedules into scratches that earlier
// batches grew and keyed to their graphs. Batch A, then larger, different
// loops on the other paper machines, then A again: A's results, schedules
// and times included, and its span trees must come out the same both times.
func TestScratchReuseAcrossBatches(t *testing.T) {
	a := kernelRequests(t, 2)
	var b []Request
	for i, src := range scheditest.SweepSources(scheditest.SweepStmts[0]) {
		b = append(b, Request{Name: fmt.Sprintf("sweep%d", i), Source: src, N: 1000})
	}
	machines := dlx.PaperConfigs()
	batch := func(reqs []Request, workers int, ms []dlx.Config) (*Batch, []string) {
		rec := obs.NewRecorder(0)
		out, err := Run(reqs, Options{Workers: workers, Machines: ms, Best: true, Observer: rec})
		if err != nil {
			t.Fatal(err)
		}
		if err := out.FirstErr(); err != nil {
			t.Fatal(err)
		}
		return out, requestShapes(t, rec.Snapshot())
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			first, firstSpans := batch(a, workers, machines[:2])
			batch(b, workers, machines[2:])
			again, againSpans := batch(a, workers, machines[:2])
			if len(firstSpans) != len(a) || len(againSpans) != len(a) {
				t.Fatalf("span trees of %d and %d requests, want %d", len(firstSpans), len(againSpans), len(a))
			}
			for i := range a {
				if d := resultDiff(again.Loops[i], first.Loops[i]); d != "" {
					t.Fatalf("%s after a batch of larger loops: %s", a[i].Name, d)
				}
				if againSpans[i] != firstSpans[i] {
					t.Fatalf("%s: span tree\n%s\nwant\n%s", a[i].Name, againSpans[i], firstSpans[i])
				}
			}
		})
	}
}
