package pipeline

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"doacross/internal/core"
	"doacross/internal/dfg"
	"doacross/internal/diag"
	"doacross/internal/dlx"
	"doacross/internal/lang"
	"doacross/internal/obs"
	"doacross/internal/passes"
	"doacross/internal/scheditest"
)

// RequestKey is the request key as it was rendered before Service.Key, with
// fmt on every call: the reference Service.Key is held to.
func RequestKey(req Request, opt Options) dfg.Fingerprint {
	n := req.N
	if n == 0 {
		n = opt.n()
	}
	h := sha256.New()
	io.WriteString(h, "request\x00")
	io.WriteString(h, opt.compileSalt())
	io.WriteString(h, "\x00")
	io.WriteString(h, opt.salt())
	fmt.Fprintf(h, "\x00n=%d w=%d x=%s\x00", n, opt.Window, opt.exactSalt(n))
	for _, m := range opt.machines() {
		fmt.Fprintf(h, "m=%+v\x00", m)
	}
	src := req.Source
	if req.Loop != nil {
		src = req.Loop.String()
	}
	io.WriteString(h, src)
	var fp dfg.Fingerprint
	h.Sum(fp[:0])
	return fp
}

// TestServiceKeyEquivalence holds Service.Key to RequestKey over every
// backend, trip counts 0, 1 and MaxTrip, windows 0 and 5, one machine and
// the paper's four, and the compile options that enter the key, for source
// and parsed-loop requests.
func TestServiceKeyEquivalence(t *testing.T) {
	loop := lang.MustParse(fig1)
	reqs := []Request{{Source: fig1}, {Loop: loop}, {Source: fig1, Loop: loop}}
	variants := map[string]func(*Options){
		"base":    func(*Options) {},
		"exactN":  func(o *Options) { o.Compile.Exact.N = 37 },
		"unroll":  func(o *Options) { o.Compile.Unroll = 2 },
		"flow":    func(o *Options) { o.Compile.FlowOnly = true },
		"dump":    func(o *Options) { o.Compile.Dump = []string{passes.PassUnroll, "tac"} },
		"migrate": func(o *Options) { o.Compile.Migrate, o.Compile.NoIfConvert = true, true },
	}
	for _, backend := range append([]string{""}, passes.BackendNames()...) {
		for _, machines := range [][]dlx.Config{{dlx.Standard(2, 1)}, dlx.PaperConfigs()} {
			for _, window := range []int{0, 5} {
				for vname, vary := range variants {
					opt := Options{Machines: machines, Window: window}
					opt.Compile.Backend = backend
					vary(&opt)
					svc, err := NewService(opt)
					if err != nil {
						t.Fatal(err)
					}
					for _, n := range []int{0, 1, MaxTrip} {
						for ri, req := range reqs {
							req.N = n
							label := fmt.Sprintf("backend %q, %d machines, window %d, %s, n=%d, request %d", backend, len(machines), window, vname, n, ri)
							got, want := svc.Key(req), RequestKey(req, opt)
							if got != want {
								t.Fatalf("%s: Key %x, RequestKey %x", label, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// scheduleView is the part of a schedule two equivalent runs agree on.
type scheduleView struct {
	Method string
	Cycle  []int
	Rows   [][]int
}

func viewOf(s *core.Schedule) *scheduleView {
	if s == nil {
		return nil
	}
	return &scheduleView{Method: s.Method, Cycle: s.Cycle, Rows: s.Rows}
}

// resultDiff describes how two results of one request differ ("" when they
// agree): index, name, trip count, error text, the compiled loop, compile
// diagnostics and lint findings, and every MachineResult field, schedules
// compared by method, cycles and rows.
func resultDiff(got, want LoopResult) string {
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	if got.Index != want.Index || got.Name != want.Name || got.N != want.N {
		return fmt.Sprintf("request (%d %q n=%d), want (%d %q n=%d)", got.Index, got.Name, got.N, want.Index, want.Name, want.N)
	}
	if errText(got.Err) != errText(want.Err) {
		return fmt.Sprintf("error %q, want %q", errText(got.Err), errText(want.Err))
	}
	if (got.SyncLoop == nil) != (want.SyncLoop == nil) || got.SyncLoop != nil && got.DoacrossSource() != want.DoacrossSource() {
		return "compiled loops differ"
	}
	same := func(a, b diag.List) bool {
		return slices.EqualFunc(a, b, func(x, y *diag.Diagnostic) bool { return *x == *y })
	}
	if !same(got.Diags, want.Diags) {
		return fmt.Sprintf("diagnostics\n%s want\n%s", got.Diags, want.Diags)
	}
	if !same(got.Lint, want.Lint) {
		return fmt.Sprintf("lint\n%s want\n%s", got.Lint, want.Lint)
	}
	if len(got.Machines) != len(want.Machines) {
		return fmt.Sprintf("%d machines, want %d", len(got.Machines), len(want.Machines))
	}
	for k := range got.Machines {
		g, w := got.Machines[k], want.Machines[k]
		for i, pair := range [][2]*core.Schedule{{g.List, w.List}, {g.Sync, w.Sync}, {g.Best, w.Best}} {
			if !reflect.DeepEqual(viewOf(pair[0]), viewOf(pair[1])) {
				return fmt.Sprintf("%s: schedule %d differs", g.Machine, i)
			}
		}
		g.List, g.Sync, g.Best = nil, nil, nil
		w.List, w.Sync, w.Best = nil, nil, nil
		if !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("machine result\n%+v\nwant\n%+v", g, w)
		}
	}
	return ""
}

// spanShape renders a span snapshot's tree: kinds, names, errors and
// attributes, indented by depth, without IDs or times.
func spanShape(spans []obs.Span) string {
	tree := obs.BuildTree(spans)
	var b strings.Builder
	var walk func(id obs.SpanID, depth int)
	walk = func(id obs.SpanID, depth int) {
		for _, s := range tree.Children[id] {
			fmt.Fprintf(&b, "%s%s %s err=%q", strings.Repeat("  ", depth), s.Kind, s.Name, s.Err)
			for _, a := range s.Attrs {
				fmt.Fprintf(&b, " %s=%s/%d", a.Key, a.Str, a.Int)
			}
			b.WriteByte('\n')
			walk(s.ID, depth+1)
		}
	}
	walk(0, 0)
	return b.String()
}

// serviceCorpus returns requests over every third wide-corpus loop, as
// source text and as parsed loops in turn, at two trip counts.
func serviceCorpus(t *testing.T) []Request {
	count := 30
	if testing.Short() {
		count = 10
	}
	var reqs []Request
	for i, c := range scheditest.WideCorpus(t, filepath.Join("..", "..", "testdata", "kernels"), count) {
		if i%3 != 0 {
			continue
		}
		req := Request{Name: c.Name, N: 100 + i%2*37}
		if loop := c.Graph.Prog.Sync.Base; i%2 == 0 {
			req.Source = loop.String()
		} else {
			req.Loop = loop
		}
		reqs = append(reqs, req)
	}
	if testing.Short() && len(reqs) > 30 {
		reqs = reqs[:30]
	}
	return reqs
}

// TestServiceEquivalence runs different wide-corpus loops interleaved on one
// Service, on the paper's four machines, so its pooled scratches serve one
// loop after another, and holds every result to a one-request pipeline.Run
// under the same options: the results and the span trees must agree. With a
// cache, the requests run twice in opposite orders (the second pass is
// served by the cache) and the reference batches share a cache of their own.
func TestServiceEquivalence(t *testing.T) {
	reqs := serviceCorpus(t)
	order := make([]int, 0, 2*len(reqs))
	for i := range reqs {
		order = append(order, i)
	}
	for i := range reqs {
		order = append(order, len(reqs)-1-i)
	}
	for _, tc := range []struct {
		name string
		opt  func() Options
	}{
		{"cached", func() Options { return Options{Machines: dlx.PaperConfigs(), Cache: NewCache(), Best: true} }},
		{"traced", func() Options { return Options{Machines: dlx.PaperConfigs(), Utilization: true, Window: 6} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := NewService(tc.opt())
			if err != nil {
				t.Fatal(err)
			}
			refOpt := tc.opt()
			for _, i := range order {
				got, gotSpans := serviceRun(svc, reqs[i])
				want, wantSpans := batchRun(t, refOpt, reqs[i])
				if d := resultDiff(got, want); d != "" {
					t.Fatalf("%s: Service.Run differs from pipeline.Run: %s", reqs[i].Name, d)
				}
				if gotSpans != wantSpans {
					t.Fatalf("%s: span tree\n%s\nwant\n%s", reqs[i].Name, gotSpans, wantSpans)
				}
			}
		})
	}
}

// TestServiceEquivalenceConcurrent runs the same requests on one Service
// from four goroutines at once, each in its own order, and holds every
// result to a one-request pipeline.Run: the pooled scratches pass between
// goroutines, and under -race any sharing shows. There is no cache, so
// every request schedules afresh.
func TestServiceEquivalenceConcurrent(t *testing.T) {
	reqs := serviceCorpus(t)
	opt := Options{Machines: dlx.PaperConfigs()}
	svc, err := NewService(opt)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]LoopResult, len(reqs))
	wantSpans := make([]string, len(reqs))
	for i := range reqs {
		want[i], wantSpans[i] = batchRun(t, opt, reqs[i])
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range reqs {
				i := (k*(w+1) + w) % len(reqs)
				got, spans := serviceRun(svc, reqs[i])
				if d := resultDiff(got, want[i]); d != "" {
					t.Errorf("worker %d, %s: Service.Run differs from pipeline.Run: %s", w, reqs[i].Name, d)
					return
				}
				if spans != wantSpans[i] {
					t.Errorf("worker %d, %s: span tree\n%s\nwant\n%s", w, reqs[i].Name, spans, wantSpans[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// serviceRun runs req on svc with a recorder of its own.
func serviceRun(svc *Service, req Request) (LoopResult, string) {
	rec := obs.NewRecorder(0)
	res := svc.Run(context.Background(), req, rec)
	return res, spanShape(rec.Snapshot())
}

// batchRun runs req as a one-request batch under opt with a recorder of its
// own.
func batchRun(t *testing.T, opt Options, req Request) (LoopResult, string) {
	t.Helper()
	rec := obs.NewRecorder(0)
	opt.Observer = rec
	b, err := Run([]Request{req}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return b.Loops[0], spanShape(rec.Snapshot())
}

// TestServiceRefusesBadOptions: NewService fails with Options.Validate's
// error, as RunContext does.
func TestServiceRefusesBadOptions(t *testing.T) {
	for _, opt := range []Options{
		{N: MaxTrip + 1},
		{Compile: passes.Options{Backend: "nope"}},
		{Machines: []dlx.Config{{Name: "broken"}}},
	} {
		_, err := NewService(opt)
		want := opt.Validate()
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("NewService(%+v) error %v, want %v", opt, err, want)
		}
	}
}
