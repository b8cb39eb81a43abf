package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doacross/internal/core"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/lang"
	"doacross/internal/loopgen"
	"doacross/internal/passes"
)

// steadyLoop is one compiled loop of the steady-state corpus.
type steadyLoop struct {
	name string
	loop *lang.Loop
	g    *dfg.Graph
}

// compileSteady compiles every loop of src through the default pass
// pipeline; loops the pipeline rejects are skipped.
func compileSteady(name, src string) []steadyLoop {
	f, err := lang.ParseFile(src)
	if err != nil {
		return nil
	}
	var out []steadyLoop
	for i, l := range f.Loops {
		ctx, err := passes.New(passes.Options{}).RunLoop(l)
		if err != nil || ctx.Graph == nil {
			continue
		}
		label := name
		if len(f.Loops) > 1 {
			label = fmt.Sprintf("%s#%d", name, i+1)
		}
		out = append(out, steadyLoop{name: label, loop: ctx.Loop, g: ctx.Graph})
	}
	return out
}

// steadyKernels compiles the shared kernel corpus.
func steadyKernels(t testing.TB) []steadyLoop {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata", "kernels")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []steadyLoop
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".loop") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		ls := compileSteady(strings.TrimSuffix(e.Name(), ".loop"), string(b))
		if len(ls) == 0 {
			t.Fatalf("kernel %s does not compile", e.Name())
		}
		out = append(out, ls...)
	}
	if len(out) < 20 {
		t.Fatalf("kernel corpus has %d loops, want 20", len(out))
	}
	return out
}

func steadySchedules(t testing.TB, g *dfg.Graph, cfg dlx.Config) []*core.Schedule {
	t.Helper()
	list, err := core.List(g, cfg, core.ProgramOrder)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := core.Sync(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []*core.Schedule{list, syn}
}

// checkSteady compares the untraced (extrapolating) engine against the
// traced full walk of the same call and, for short runs, the detailed
// simulator. It returns the untraced run's steady state.
func checkSteady(t *testing.T, label string, l steadyLoop, s *core.Schedule, opt Options, tr *Tracer) steady {
	t.Helper()
	sc := &timeScratch{}
	got, st, err := sc.run(s, opt)
	ropt := opt
	ropt.Tracer = tr
	want, rerr := Time(s, ropt)
	if (err == nil) != (rerr == nil) {
		t.Fatalf("%s: untraced error %v, traced error %v", label, err, rerr)
	}
	if err != nil {
		return st
	}
	if got != want {
		t.Fatalf("%s: extrapolated %+v (steady %+v) != full walk %+v", label, got, st, want)
	}
	if opt.N() <= 200 {
		store := l.loop.SeedStore(opt.Hi+8, 8, 3)
		if det, err := Run(s, store, opt); err == nil && det != got {
			t.Fatalf("%s: extrapolated %+v != detailed %+v", label, got, det)
		}
	}
	return st
}

// TestSteadyStateMatchesFullWalk: steady-state extrapolation is bit-identical
// to walking every iteration — Total, StallCycles and SignalsSent — over the
// kernel corpus plus generated loops, four machine shapes, both schedulers,
// and a grid of trip counts, processor counts and signal windows. The traced
// run of the same call is the full-walk reference (tracing disables the
// extrapolation); the detailed simulator joins in for short runs. Kernels run
// the whole trip-count grid; generated loops stop at n = 1000, where almost
// all of them already extrapolate, to keep the traced reference affordable.
// -short and the race detector trim the corpus, the grid and the machine
// shapes.
func TestSteadyStateMatchesFullWalk(t *testing.T) {
	type group struct {
		loops []steadyLoop
		ns    []int
	}
	gen := 300
	kernelNs := []int{1, 2, 3, 17, 100, 1000, 12345, 40000}
	genNs := kernelNs[:6]
	cfgs := []dlx.Config{dlx.Standard(4, 1), dlx.Standard(2, 1), dlx.Uniform(2, 1), dlx.Standard(4, 2)}
	if testing.Short() || raceEnabled {
		gen, kernelNs, genNs = 40, []int{1, 3, 17, 100, 2500}, []int{1, 3, 17, 100, 1000}
		cfgs = cfgs[:2]
	}
	var generated []steadyLoop
	for i, src := range loopgen.Suite(7, gen) {
		generated = append(generated, compileSteady(fmt.Sprintf("gen%d", i), src)...)
	}
	tr := &Tracer{}
	runs, extrapolated := 0, 0
	for _, grp := range []group{{steadyKernels(t), kernelNs}, {generated, genNs}} {
		for _, l := range grp.loops {
			for _, cfg := range cfgs {
				for _, s := range steadySchedules(t, l.g, cfg) {
					for _, n := range grp.ns {
						for _, procs := range []int{0, 3, 7} {
							for _, window := range []int{0, 2, 5} {
								opt := Options{Lo: 1, Hi: n, Procs: procs, Window: window}
								label := fmt.Sprintf("%s/%s/%s n=%d procs=%d window=%d", l.name, cfg.Name, s.Method, n, procs, window)
								if checkSteady(t, label, l, s, opt, tr).P > 0 {
									extrapolated++
								}
								runs++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs, %d extrapolated", runs, extrapolated)
}

// TestSteadyStateKernelsExtrapolate: every kernel on the 4-issue #FU=1
// machine reaches a steady state well inside n = 40000 under both
// schedulers, so the long-trip path never falls back to the full walk.
func TestSteadyStateKernelsExtrapolate(t *testing.T) {
	const n = 40000
	for _, l := range steadyKernels(t) {
		for _, s := range steadySchedules(t, l.g, dlx.Standard(4, 1)) {
			sc := &timeScratch{}
			_, st, err := sc.run(s, Options{Lo: 1, Hi: n})
			if err != nil {
				t.Fatal(err)
			}
			if st.P == 0 || st.K >= n {
				t.Errorf("%s/%s: no steady state at n=%d (%+v)", l.name, s.Method, n, st)
			}
		}
	}
}

// FuzzSteadyState: for any generated loop, machine, trip count, processor
// count and window, the extrapolating engine agrees with the full walk.
func FuzzSteadyState(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(40000), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(5), uint16(12345), uint8(3), uint8(5))
	f.Add(uint64(99), uint8(4), uint16(17), uint8(7), uint8(2))
	tr := &Tracer{}
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, n uint16, procs, window uint8) {
		shapes := loopgen.Shapes()
		src := loopgen.Generate(seed, loopgen.Options{Shape: shapes[int(shape)%len(shapes)], Stmts: 1 + int(seed%4)})
		ls := compileSteady("fuzz", src)
		if len(ls) == 0 {
			return
		}
		cfg := dlx.PaperConfigs()[seed%4]
		s := steadySchedules(t, ls[0].g, cfg)[seed/4%2]
		opt := Options{Lo: 1, Hi: int(n), Procs: int(procs % 16), Window: int(window % 12)}
		checkSteady(t, fmt.Sprintf("seed %d: %s", seed, src), ls[0], s, opt, tr)
	})
}
