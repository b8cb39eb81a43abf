package core_test

import (
	"path/filepath"
	"strings"
	"testing"

	"doacross/internal/core"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/loopgen"
	"doacross/internal/scheditest"
)

// ablations are the SyncOptions the equivalence tests run: the paper's
// algorithm and each knob on its own.
var ablations = []core.SyncOptions{{}, {NoPairArcs: true}, {NoLazyWaits: true}, {NoSPPriority: true}, {AscendingSP: true}}

// sameAsReference schedules g on m with both list priorities, the given
// SyncOptions and Best, on sc and on the reference engine, and fails unless
// each pair of schedules is the same.
func sameAsReference(t *testing.T, name string, sc *core.Scratch, ref *core.EngineReference, g *dfg.Graph, m dlx.Config, opts []core.SyncOptions) {
	t.Helper()
	check := func(what string, got *core.Schedule, err error, want *core.Schedule, werr error) {
		t.Helper()
		if err != nil || werr != nil {
			t.Fatalf("%s on %s, %s: %v; reference: %v", name, m.Name, what, err, werr)
		}
		sameSchedule(t, name+" on "+m.Name+", "+what, got, want)
	}
	for _, pri := range []core.ListPriority{core.CriticalPath, core.ProgramOrder} {
		got, err := sc.List(g, m, pri)
		want, werr := ref.List(g, m, pri)
		check("list", got, err, want, werr)
	}
	for _, opt := range opts {
		got, err := sc.SyncWithOptions(g, m, opt)
		want, werr := ref.SyncWithOptions(g, m, opt)
		check("sync", got, err, want, werr)
	}
	got, err := sc.Best(g, m)
	want, werr := ref.Best(g, m)
	check("best", got, err, want, werr)
}

// TestEngineEquivalence holds the event-driven cycle engine, with its
// replayed LBD candidates and per-graph reuse, to the reference engine it
// replaced: on the wide corpus and the size-sweep loops up to 40
// statements, on every paper machine, both list priorities, every
// SyncOptions ablation and Best give the same cycles and simulated timing.
// One Scratch serves every call, so the machines and options of one graph
// reuse its state.
func TestEngineEquivalence(t *testing.T) {
	count := 120
	if testing.Short() {
		count = 40
	}
	cases := scheditest.WideCorpus(t, filepath.Join("..", "..", "testdata", "kernels"), count)
	engineEquivalence(t, append(cases, scheditest.SweepCorpus(t, 40)...))
}

// TestEngineEquivalenceSweep80 is TestEngineEquivalence on the
// 80-statement sweep loops. The reference takes seconds per loop, machine
// and option there, so the test is skipped under -short and under the race
// detector.
func TestEngineEquivalenceSweep80(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("the reference engine is too slow on 80-statement loops under -short or -race")
	}
	var cases []scheditest.Case
	for _, c := range scheditest.SweepCorpus(t, 80) {
		if strings.HasPrefix(c.Name, "sweep80/") {
			cases = append(cases, c)
		}
	}
	engineEquivalence(t, cases)
}

func engineEquivalence(t *testing.T, cases []scheditest.Case) {
	sc, ref := core.NewScratch(), core.NewEngineReference()
	for _, c := range cases {
		for _, m := range dlx.PaperConfigs() {
			sameAsReference(t, c.Name, sc, ref, c.Graph, m, ablations)
		}
	}
}

// FuzzEngineEquivalence holds the engine to the reference on a generated
// loop (loopgen seed, shape and size) and a random machine: issue width
// 1–8, 1–3 units and latency 1–6 per class.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(3), uint64(0))
	f.Add(uint64(0xED6E), uint8(5), uint8(8), uint64(0x9E3779B97F4A7C15))
	f.Add(uint64(42), uint8(3), uint8(12), uint64(12345678901))
	f.Fuzz(func(t *testing.T, seed uint64, shape, stmts uint8, machine uint64) {
		sh := loopgen.Shape(int(shape) % len(loopgen.Shapes()))
		src := loopgen.Generate(seed, loopgen.Options{Shape: sh, Stmts: 1 + int(stmts)%12})
		g := compile(t, src)
		m := dlx.Standard(1+int(machine%8), 1)
		m.Name = "fuzz machine"
		machine /= 8
		for c := dlx.Class(0); c < dlx.NumClasses; c++ {
			if dlx.NeedsUnit(c) {
				m.Units[c] = 1 + int(machine%3)
				machine /= 3
			}
			m.Latency[c] = 1 + int(machine%6)
			machine /= 6
		}
		sameAsReference(t, src, core.NewScratch(), core.NewEngineReference(), g, m, ablations)
	})
}

// TestScratchReuse holds a Scratch that reuses its per-graph state to a
// fresh Scratch on every call of a sequence that changes what the state is
// keyed by: the graph (A, B, then A again), the latency vector (one graph
// on two machines whose latencies differ), the SyncOptions (ablations
// interleaved with the default), and the entry point (Best after Sync).
func TestScratchReuse(t *testing.T) {
	sweep := scheditest.SweepCorpus(t, 10)
	a, b := sweep[0].Graph, sweep[1].Graph
	std, uni := dlx.Standard(2, 1), dlx.Uniform(2, 1)
	sync := func(opt core.SyncOptions) func(*core.Scratch, *dfg.Graph, dlx.Config) (*core.Schedule, error) {
		return func(sc *core.Scratch, g *dfg.Graph, m dlx.Config) (*core.Schedule, error) {
			return sc.SyncWithOptions(g, m, opt)
		}
	}
	list := func(sc *core.Scratch, g *dfg.Graph, m dlx.Config) (*core.Schedule, error) {
		return sc.List(g, m, core.CriticalPath)
	}
	best := func(sc *core.Scratch, g *dfg.Graph, m dlx.Config) (*core.Schedule, error) {
		return sc.Best(g, m)
	}
	steps := []struct {
		name string
		g    *dfg.Graph
		m    dlx.Config
		run  func(*core.Scratch, *dfg.Graph, dlx.Config) (*core.Schedule, error)
	}{
		{"A", a, std, sync(core.SyncOptions{})},
		{"B", b, std, sync(core.SyncOptions{})},
		{"A again", a, std, sync(core.SyncOptions{})},
		{"A, list", a, std, list},
		{"A, uniform latencies", a, uni, sync(core.SyncOptions{})},
		{"A, uniform latencies, list", a, uni, list},
		{"A, standard latencies again", a, std, sync(core.SyncOptions{})},
		{"A, no pair arcs", a, std, sync(core.SyncOptions{NoPairArcs: true})},
		{"A, default after no pair arcs", a, std, sync(core.SyncOptions{})},
		{"A, no lazy waits", a, std, sync(core.SyncOptions{NoLazyWaits: true})},
		{"A, default after no lazy waits", a, std, sync(core.SyncOptions{})},
		{"A, no SP priority", a, std, sync(core.SyncOptions{NoSPPriority: true})},
		{"A, ascending SP", a, std, sync(core.SyncOptions{AscendingSP: true})},
		{"A, default after ascending SP", a, std, sync(core.SyncOptions{})},
		{"A, best after sync", a, std, best},
		{"B, best after A", b, std, best},
	}
	sc := core.NewScratch()
	for _, s := range steps {
		got, err := s.run(sc, s.g, s.m)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		want, err := s.run(core.NewScratch(), s.g, s.m)
		if err != nil {
			t.Fatalf("%s, fresh Scratch: %v", s.name, err)
		}
		sameSchedule(t, s.name, got, want)
	}
}
