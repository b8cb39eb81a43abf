package core_test

import (
	"path/filepath"
	"slices"
	"testing"

	"doacross/internal/core"
	"doacross/internal/dlx"
	"doacross/internal/scheditest"
	"doacross/internal/sim"
)

// TestSyncEquivalence holds the incremental arc adder to the reference
// adder it replaced: on the kernels, the five synthetic Perfect suites, a
// seeded loopgen suite and the size-sweep loops up to 40 statements, on
// every paper machine, the synchronization-aware schedule and the Best
// schedule have the same cycles and simulated timing, and so do the
// ablations' schedules on all but the sweep loops.
func TestSyncEquivalence(t *testing.T) {
	count, sweep := 120, 40
	if testing.Short() {
		count, sweep = 40, 20
	}
	cases := scheditest.WideCorpus(t, filepath.Join("..", "..", "testdata", "kernels"), count)
	wide := len(cases)
	cases = append(cases, scheditest.SweepCorpus(t, sweep)...)
	opts := []core.SyncOptions{{}, {NoPairArcs: true}, {NoLazyWaits: true}, {NoSPPriority: true}, {AscendingSP: true}}
	sc, ref := core.NewScratch(), core.NewReferenceScratch()
	for i, c := range cases {
		if i == wide {
			opts = opts[:1]
		}
		for _, m := range dlx.PaperConfigs() {
			for _, opt := range opts {
				got, err := sc.SyncWithOptions(c.Graph, m, opt)
				if err != nil {
					t.Fatalf("%s on %s: %v", c.Name, m.Name, err)
				}
				want, err := ref.SyncWithOptions(c.Graph, m, opt)
				if err != nil {
					t.Fatalf("%s on %s, reference: %v", c.Name, m.Name, err)
				}
				sameSchedule(t, c.Name+" on "+m.Name, got, want)
			}
			got, err := sc.Best(c.Graph, m)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.Name, m.Name, err)
			}
			want, err := ref.Best(c.Graph, m)
			if err != nil {
				t.Fatalf("%s on %s, reference: %v", c.Name, m.Name, err)
			}
			sameSchedule(t, c.Name+" on "+m.Name+", best", got, want)
		}
	}
}

// sameSchedule fails unless two schedules issue every instruction in the
// same cycle and simulate to the same timing at n = 100.
func sameSchedule(t *testing.T, name string, got, want *core.Schedule) {
	t.Helper()
	if got.Method != want.Method || !slices.Equal(got.Cycle, want.Cycle) {
		t.Fatalf("%s: %s schedule %v, reference %s %v", name, got.Method, got.Cycle, want.Method, want.Cycle)
	}
	opt := sim.Options{Lo: 1, Hi: 100}
	gt, err := sim.Time(got, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wt, err := sim.Time(want, opt)
	if err != nil {
		t.Fatalf("%s, reference: %v", name, err)
	}
	if gt != wt {
		t.Fatalf("%s: timing %+v, reference %+v", name, gt, wt)
	}
}
