package syncop_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"doacross/internal/dep"
	"doacross/internal/scheditest"
	"doacross/internal/syncop"
)

// TestSyncedIdentity: over the wide corpus and the size sweep up to 40
// statements, with and without FlowOnly, Synced indexes exactly the
// dependences that received synchronization, in analysis order, at a
// capacity equal to its length, and SyncedDep reads them from the analysis.
func TestSyncedIdentity(t *testing.T) {
	cases := scheditest.WideCorpus(t, filepath.Join("..", "..", "testdata", "kernels"), 120)
	cases = append(cases, scheditest.SweepCorpus(t, 40)...)
	synced := 0
	for _, c := range cases {
		a := c.Graph.Prog.Sync.Analysis
		for _, opt := range []syncop.Options{{}, {FlowOnly: true}} {
			var want []dep.Dependence
			for _, d := range a.Deps {
				if d.Carried() && (!opt.FlowOnly || d.Kind == dep.Flow) {
					want = append(want, d)
				}
			}
			sl := syncop.Insert(a, opt)
			var got []dep.Dependence
			for k := range sl.Synced {
				if d := sl.SyncedDep(k); d != &a.Deps[sl.Synced[k]] {
					t.Fatalf("%s (FlowOnly %v): SyncedDep(%d) is not the analysis' dependence %d", c.Name, opt.FlowOnly, k, sl.Synced[k])
				}
				got = append(got, *sl.SyncedDep(k))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (FlowOnly %v): Synced %v, want %v", c.Name, opt.FlowOnly, got, want)
			}
			if len(sl.Synced) != cap(sl.Synced) {
				t.Errorf("%s (FlowOnly %v): %d synchronized dependences with capacity %d", c.Name, opt.FlowOnly, len(sl.Synced), cap(sl.Synced))
			}
			synced += len(sl.Synced)
		}
	}
	if synced < 1000 {
		t.Fatalf("only %d synchronized dependences compared", synced)
	}
}
