package pipeline

import (
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"doacross/internal/passes"
)

// fixtureTier is a disk tier written by an earlier version of this package:
// fig1 and the hydro and wavefront kernels under default options, plus fig1
// under the exact backend, each at n=100 on the 4-issue(#FU=1) machine. It
// must not be regenerated to make a test pass: it is the only thing that
// pins the disk keys and the payload format across versions (the
// warm-restart tests write and read with the same code).
const fixtureTier = "testdata/disktier"

// copyTier copies the fixture tier into a fresh directory, so quarantines
// and writes never touch the checked-in files.
func copyTier(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(fixtureTier, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(fixtureTier, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// kernelSource reads one loop of the repository's kernel corpus.
func kernelSource(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "kernels", name+".loop"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// persistedTimes decodes every entry's timing counters by their JSON keys,
// independently of the package's own payload types, keyed by
// "name/backend".
func persistedTimes(t *testing.T, store *DiskStore) map[string]map[string]int {
	t.Helper()
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]int{}
	for _, k := range keys {
		payload, err := store.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		var p struct {
			Name    string         `json:"name"`
			Backend string         `json:"backend"`
			Times   map[string]int `json:"times"`
		}
		if err := json.Unmarshal(payload, &p); err != nil {
			t.Fatal(err)
		}
		out[p.Name+"/"+p.Backend] = p.Times
	}
	return out
}

// TestDiskFixtureCompat: the fixture tier loads whole under either option
// set, nothing stale or corrupt (a load accepts every backend's entries),
// and its requests are then served as pure memory hits carrying the
// persisted times.
func TestDiskFixtureCompat(t *testing.T) {
	srcs := map[string]string{
		"fig1":      fig1,
		"hydro":     kernelSource(t, "hydro"),
		"wavefront": kernelSource(t, "wavefront"),
	}
	for _, tc := range []struct {
		name    string
		opt     Options
		backend string
		loops   []string
	}{
		{"default", Options{}, "sync", []string{"fig1", "hydro", "wavefront"}},
		{"exact", Options{Compile: passes.Options{Backend: "exact"}}, "exact", []string{"fig1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := OpenDiskStore(copyTier(t))
			if err != nil {
				t.Fatal(err)
			}
			persisted := persistedTimes(t, store)
			if len(persisted) != 4 {
				t.Fatalf("fixture holds %d entries, want 4", len(persisted))
			}
			cache := NewCache()
			ls, err := LoadDisk(context.Background(), store, cache, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if ls.Loaded != 4 || ls.Stale != 0 || ls.Corrupt != 0 || ls.Errors != 0 {
				t.Fatalf("load stats = %s, want loaded=4 stale=0", ls)
			}

			opt := tc.opt
			opt.Workers = 1
			opt.Cache = cache
			opt.Disk = store
			opt.Metrics = NewMetrics()
			reqs := make([]Request, len(tc.loops))
			for i, name := range tc.loops {
				reqs[i] = Request{Name: name, Source: srcs[name]}
			}
			b, err := Run(reqs, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.FirstErr(); err != nil {
				t.Fatal(err)
			}
			for _, lr := range b.Loops {
				mr := lr.Machines[0]
				if !mr.CacheHit || mr.Degraded {
					t.Errorf("%s: cache hit %v, degraded %v; want a clean hit", lr.Name, mr.CacheHit, mr.Degraded)
				}
				want := persisted[lr.Name+"/"+tc.backend]
				if len(want) != 11 {
					t.Fatalf("%s: persisted times %v, want 11 counters", lr.Name, want)
				}
				got := map[string]int{
					"ListTime": mr.ListTime, "SyncTime": mr.SyncTime, "BestTime": mr.BestTime,
					"ListStalls": mr.ListStalls, "SyncStalls": mr.SyncStalls,
					"ListLBD": mr.ListLBD, "SyncLBD": mr.SyncLBD,
					"ListLFD": mr.ListLFD, "SyncLFD": mr.SyncLFD,
					"ListSignals": mr.ListSignals, "SyncSignals": mr.SyncSignals,
				}
				for k, v := range want {
					if got[k] != v {
						t.Errorf("%s: %s = %d, persisted %d", lr.Name, k, got[k], v)
					}
				}
			}
			st := b.Stats
			for _, stage := range []string{StageSchedule, StageVerify, StageSimulate} {
				if n := st.Stage(stage).Count; n != 0 {
					t.Errorf("fixture requests ran %s %d times, want 0", stage, n)
				}
			}
			if w := store.Stats().Writes; w != 0 {
				t.Errorf("fixture requests wrote %d disk entries, want 0", w)
			}
		})
	}
}
