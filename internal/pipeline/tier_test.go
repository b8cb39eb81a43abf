package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"doacross/internal/core"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/faults"
	"doacross/internal/model"
	"doacross/internal/sim"
)

// diskOpt builds the options of a disk-tier test run.
func diskOpt(cache *Cache, disk *DiskStore) Options {
	return Options{Cache: cache, Disk: disk, Workers: 2}
}

// coldRun populates a fresh store from the corpus and returns the batch.
func coldRun(t *testing.T, dir string, srcs []string) (*Batch, *DiskStore) {
	t.Helper()
	store, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := run(t, srcs, diskOpt(NewCache(), store))
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 {
		t.Fatal("cold run persisted nothing")
	}
	return b, store
}

// siblingTrips are the trip counts a sibling tier is written at.
var siblingTrips = []int{100, 1000}

// siblingRun populates a fresh store from the corpus on the paper's four
// machines at both siblingTrips, through one cache as a live daemon would:
// every scheduling problem is persisted twice, the second time from a
// schedule-cache hit on its first. It returns the batch of each trip count.
func siblingRun(t *testing.T, dir string, srcs []string) ([]*Batch, *DiskStore) {
	t.Helper()
	store, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	var batches []*Batch
	for _, n := range siblingTrips {
		opt := diskOpt(cache, store)
		opt.Machines, opt.N = dlx.PaperConfigs(), n
		b := run(t, srcs, opt)
		if err := b.FirstErr(); err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
	}
	return batches, store
}

// TestDiskTierWarmRestart is the service restart path: a second process
// opens the same directory, re-verifies and loads every entry, and then
// serves the whole corpus from memory — zero compiles, zero schedules,
// zero simulations in the request-time metrics — with the cold run's times
// and schedule rows. The sibling tier gives every problem a second entry at
// another trip count, so half its entries load through the verify-once
// rule.
func TestDiskTierWarmRestart(t *testing.T) {
	srcs := corpus(8)
	for _, tc := range []struct {
		name     string
		machines []dlx.Config
		trips    []int
		cold     func(t *testing.T, dir string) ([]*Batch, *DiskStore)
	}{
		{"single", nil, []int{0}, func(t *testing.T, dir string) ([]*Batch, *DiskStore) {
			b, store := coldRun(t, dir, srcs)
			return []*Batch{b}, store
		}},
		{"siblings", dlx.PaperConfigs(), siblingTrips, func(t *testing.T, dir string) ([]*Batch, *DiskStore) {
			return siblingRun(t, dir, srcs)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			colds, store := tc.cold(t, dir)
			entries := store.Len()

			store2, err := OpenDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			cache2 := NewCache()
			ls, err := LoadDisk(context.Background(), store2, cache2, diskOpt(nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			if ls.Loaded != entries || ls.Scanned != entries || ls.Corrupt != 0 || ls.Stale != 0 || ls.Errors != 0 {
				t.Fatalf("load stats = %s, want loaded=%d and nothing else", ls, entries)
			}

			metrics := NewMetrics()
			for k, n := range tc.trips {
				opt := diskOpt(cache2, store2)
				opt.Metrics, opt.Machines, opt.N = metrics, tc.machines, n
				warm := run(t, srcs, opt)
				if err := warm.FirstErr(); err != nil {
					t.Fatal(err)
				}
				for i := range warm.Loops {
					for m, mr := range warm.Loops[i].Machines {
						cold := colds[k].Loops[i].Machines[m]
						if !mr.CacheHit {
							t.Errorf("n=%d loop %d on %s not served warm", n, i, mr.Machine)
						}
						if err := mr.Sync.Validate(); err != nil {
							t.Errorf("n=%d loop %d on %s: warm schedule invalid: %v", n, i, mr.Machine, err)
						}
						if mr.SyncTime != cold.SyncTime || mr.ListTime != cold.ListTime {
							t.Errorf("n=%d loop %d on %s: warm times (%d, %d) != cold (%d, %d)",
								n, i, mr.Machine, mr.ListTime, mr.SyncTime, cold.ListTime, cold.SyncTime)
						}
						if !reflect.DeepEqual(mr.Sync.Rows, cold.Sync.Rows) || !reflect.DeepEqual(mr.List.Rows, cold.List.Rows) {
							t.Errorf("n=%d loop %d on %s: warm schedule rows differ from the cold run's", n, i, mr.Machine)
						}
					}
				}
			}
			st := metrics.Stats()
			for _, stage := range []string{StageSchedule, StageSimulate} {
				if n := st.Stage(stage).Count; n != 0 {
					t.Errorf("warm run executed %s %d times, want 0", stage, n)
				}
			}
			// The warm run re-persisted nothing: every problem was already on disk.
			if w := store2.Stats().Writes; w != 0 {
				t.Errorf("warm run wrote %d disk entries, want 0", w)
			}
		})
	}
}

// TestLoadDiskPairsTimesWithServedSchedules: two valid, correctly keyed
// entries of one problem hold different schedule sets, as two versions
// writing under the same salts could leave them: fig1 at n=100 with its own
// schedules, and at n=1000 with its list schedule standing in as the sync
// schedule. Whichever set binds the schedule key, every trip count must
// serve a time that describes the sync schedule served beside it: the other
// entry is stale, and the first live request at its trip count simulates
// the bound set and overwrites it on disk.
func TestLoadDiskPairsTimesWithServedSchedules(t *testing.T) {
	store, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := run(t, []string{fig1}, Options{})
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	lr, mr := b.Loops[0], b.Loops[0].Machines[0]
	if reflect.DeepEqual(mr.List.Rows, mr.Sync.Rows) {
		t.Fatal("fig1's list and sync schedules coincide; the two sets would not differ")
	}
	opt := Options{Disk: store}
	for _, c := range []struct {
		n    int
		sync *core.Schedule
	}{{100, mr.Sync}, {1000, mr.List}} {
		lt, err := sim.Time(mr.List, sim.Options{Lo: 1, Hi: c.n})
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Time(c.sync, sim.Options{Lo: 1, Hi: c.n})
		if err != nil {
			t.Fatal(err)
		}
		r := runner{Service: &Service{opt: opt, compileSalt: opt.compileSalt()}, res: LoopResult{Name: "fig1"}, src: fig1,
			keys: keySet{fp: lr.Graph.Fingerprint(), schedSalt: opt.salt(), exSalt: opt.exactSalt(c.n), n: c.n}}
		r.persistResult(&machineRun{
			cfg: dlx.Standard(4, 1),
			entry: &schedEntry{list: mr.List, sync: c.sync, backend: mr.Backend,
				predictedT: model.Predict(c.sync, c.n), predictedAtN: c.n},
			times: &timeEntry{timeCounters: countersOf(lt, st, mr.List, c.sync)},
		})
	}
	if store.Len() != 2 {
		t.Fatalf("hand-written tier holds %d entries, want 2", store.Len())
	}
	cache := NewCache()
	ls, err := LoadDisk(context.Background(), store, cache, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ls.Loaded != 1 || ls.Stale != 1 || ls.Corrupt != 0 || ls.Errors != 0 {
		t.Fatalf("load stats = %s, want loaded=1 stale=1", ls)
	}
	for _, n := range []int{100, 1000} {
		b := run(t, []string{fig1}, Options{Cache: cache, Disk: store, N: n})
		if err := b.FirstErr(); err != nil {
			t.Fatal(err)
		}
		served := b.Loops[0].Machines[0]
		if !served.CacheHit {
			t.Errorf("n=%d: schedules not served from the loaded cache", n)
		}
		st, err := sim.Time(served.Sync, sim.Options{Lo: 1, Hi: n})
		if err != nil {
			t.Fatal(err)
		}
		if served.SyncTime != st.Total {
			t.Errorf("n=%d: served sync_time %d, but the served sync schedule simulates to %d",
				n, served.SyncTime, st.Total)
		}
	}
	// The stale entry was overwritten with the bound set's times: the tier
	// now loads whole.
	ls, err = LoadDisk(context.Background(), store, NewCache(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ls.Loaded != 2 || ls.Stale != 0 {
		t.Errorf("reload stats = %s, want loaded=2 stale=0", ls)
	}
}

// TestLoadDiskVerifiesAlteredSibling: the verify-once rule skips
// re-verifying only a set byte-identical to the verified one bound under
// its key. A sibling entry re-framed with two sync rows swapped — fresh
// checksum, correct key — loaded into a cache where its problem's verified
// set is already bound, must still be verified, and quarantined.
func TestLoadDiskVerifiesAlteredSibling(t *testing.T) {
	dir := t.TempDir()
	_, store := siblingRun(t, dir, corpus(4))
	entries := store.Len()
	cache := NewCache()
	ls, err := LoadDisk(context.Background(), store, cache, diskOpt(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if ls.Loaded != entries {
		t.Fatalf("first load stats = %s, want loaded=%d", ls, entries)
	}
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	// Alter the first n=1000 entry whose sync schedule spans several
	// cycles: swap its first and last rows.
	var altered dfg.Fingerprint
	for _, k := range keys {
		payload, err := store.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		var p diskPayload
		if err := json.Unmarshal(payload, &p); err != nil {
			t.Fatal(err)
		}
		rows := p.Sync.Rows
		if p.N != siblingTrips[1] || len(rows) < 2 {
			continue
		}
		rows[0], rows[len(rows)-1] = rows[len(rows)-1], rows[0]
		payload, err = json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		altered = k
		break
	}
	if altered == (dfg.Fingerprint{}) {
		t.Fatal("no sibling entry to alter")
	}
	ls, err = LoadDisk(context.Background(), store, cache, diskOpt(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if ls.Corrupt != 1 || ls.Loaded != entries-1 || ls.Stale != 0 {
		t.Errorf("reload stats = %s, want corrupt=1 loaded=%d", ls, entries-1)
	}
	if _, err := store.Get(altered); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("altered entry not quarantined: Get = %v", err)
	}
}

// TestLoadDiskCancel: a load under a context cancelled before it starts
// returns context.Canceled, visits no entry, publishes nothing and leaves
// no worker running. A load cancelled midway (from the disk-read hook)
// returns the same error, and every entry it counts as loaded is in the
// cache with its time.
func TestLoadDiskCancel(t *testing.T) {
	dir := t.TempDir()
	_, store := siblingRun(t, dir, corpus(4))
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cache := NewCache()
	ls, err := LoadDisk(ctx, store, cache, diskOpt(nil, nil))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("LoadDisk under a cancelled context = %v, want context.Canceled", err)
	}
	if ls != (LoadStats{}) || cache.Len() != 0 {
		t.Errorf("cancelled load: stats %s, %d cache entries, want nothing", ls, cache.Len())
	}
	if st := store.Stats(); st.Reads != 0 || st.Quarantined != 0 {
		t.Errorf("cancelled load touched the store: %+v", st)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after the cancelled load, %d before", after, before)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var reads atomic.Int32
	store.SetFaultHook(func(stage, name string) error {
		if stage == StageDiskRead && reads.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	cache = NewCache()
	ls, err = LoadDisk(ctx, store, cache, diskOpt(nil, nil))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("LoadDisk cancelled midway = %v, want context.Canceled", err)
	}
	if ls.Loaded >= store.Len() {
		t.Errorf("load cancelled midway loaded all %d entries", ls.Loaded)
	}
	times := 0
	for i := range cache.shards {
		for _, v := range cache.shards[i].m {
			if _, ok := v.(*timeEntry); ok {
				times++
			}
		}
	}
	if times != ls.Loaded {
		t.Errorf("cache holds %d times, stats say loaded=%d", times, ls.Loaded)
	}
}

// TestDiskTierCrashRecovery is the crash-safety satellite: after a cold
// run, one entry is bit-flipped and one truncated on disk (a torn write a
// crashed or lying disk could leave). The restarted loader must quarantine
// exactly those two — counted, bytes kept — and bring the rest up warm;
// re-running the corpus recomputes the two lost problems and heals the
// store back to full strength.
func TestDiskTierCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	srcs := corpus(8)
	_, store := coldRun(t, dir, srcs)
	entries := store.Len()
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) < 3 {
		t.Fatalf("corpus persisted only %d entries", len(keys))
	}
	// Flip a payload byte of one entry, truncate another mid-payload.
	flip := store.path(keys[0])
	data, err := os.ReadFile(flip)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(flip, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(store.path(keys[1]), int64(diskHeaderSize+1)); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache2 := NewCache()
	ls, err := LoadDisk(context.Background(), store2, cache2, diskOpt(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if ls.Corrupt != 2 {
		t.Errorf("load stats = %s, want corrupt=2", ls)
	}
	if ls.Loaded != entries-2 {
		t.Errorf("load stats = %s, want loaded=%d", ls, entries-2)
	}
	if q := store2.Stats().Quarantined; q != 2 {
		t.Errorf("quarantined = %d, want 2", q)
	}

	// Healing: the same corpus recomputes the two quarantined problems (and
	// only those) and persists them again. One worker, so a repeated loop
	// shape cannot race two concurrent misses of the same problem.
	opt := diskOpt(cache2, store2)
	opt.Workers = 1
	metrics := NewMetrics()
	opt.Metrics = metrics
	warm := run(t, srcs, opt)
	if err := warm.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for i := range warm.Loops {
		if err := warm.Loops[i].Machines[0].Sync.Validate(); err != nil {
			t.Errorf("loop %d served invalid schedule after recovery: %v", i, err)
		}
	}
	if store2.Len() != entries {
		t.Errorf("store healed to %d entries, want %d", store2.Len(), entries)
	}
	if n := metrics.Stats().Stage(StageSchedule).Count; n != 2 {
		t.Errorf("recovery run rescheduled %d problems, want exactly the 2 lost", n)
	}
}

// TestLoadDiskSkipsStale: entries persisted under different scheduling
// options are skipped, not loaded and not quarantined — they are valid
// answers to a different question.
func TestLoadDiskSkipsStale(t *testing.T) {
	dir := t.TempDir()
	_, store := coldRun(t, dir, corpus(4))
	entries := store.Len()

	store2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt := diskOpt(nil, nil)
	opt.Sync.NoLazyWaits = true // a different scheduling salt
	ls, err := LoadDisk(context.Background(), store2, NewCache(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Stale != entries || ls.Loaded != 0 || ls.Corrupt != 0 {
		t.Errorf("load stats = %s, want stale=%d loaded=0", ls, entries)
	}
}

// TestLoadDiskQuarantinesAboveMaxTrip: a persisted entry whose trip count
// exceeds MaxTrip is quarantined, like one below 1, even though it is
// otherwise a well-formed, verifiable answer filed under its own key. No
// run can produce such an entry, so it is written by hand through the
// payload and key code a live run uses.
func TestLoadDiskQuarantinesAboveMaxTrip(t *testing.T) {
	store, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := run(t, []string{fig1}, Options{N: MaxTrip})
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	lr, mr := b.Loops[0], b.Loops[0].Machines[0]
	n := MaxTrip + 1
	lt, err := sim.Time(mr.List, sim.Options{Lo: 1, Hi: n})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Time(mr.Sync, sim.Options{Lo: 1, Hi: n})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Disk: store}
	r := runner{Service: &Service{opt: opt, compileSalt: opt.compileSalt()}, res: LoopResult{Name: "huge"}, src: fig1,
		keys: keySet{fp: lr.Graph.Fingerprint(), schedSalt: opt.salt(), exSalt: opt.exactSalt(n), n: n}}
	r.persistResult(&machineRun{
		cfg: dlx.Standard(4, 1),
		entry: &schedEntry{list: mr.List, sync: mr.Sync, backend: mr.Backend,
			predictedT: model.Predict(mr.Sync, n), predictedAtN: n},
		times: &timeEntry{timeCounters: countersOf(lt, st, mr.List, mr.Sync)},
	})
	if store.Len() != 1 {
		t.Fatalf("hand-written tier holds %d entries, want 1", store.Len())
	}
	ls, err := LoadDisk(context.Background(), store, NewCache(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ls.Corrupt != 1 || ls.Loaded != 0 {
		t.Errorf("load stats = %s, want the N=%d entry quarantined", ls, n)
	}
}

// TestLoadDiskRefusesMismatchedKey: an entry refiled under another
// problem's key — valid checksum, valid payload — must fail the
// content-address audit and be quarantined, never served as the other
// problem's answer.
func TestLoadDiskRefusesMismatchedKey(t *testing.T) {
	dir := t.TempDir()
	_, store := coldRun(t, dir, corpus(4))
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) < 2 {
		t.Fatal("need two entries")
	}
	// Refile entry 0's bytes under entry 1's key.
	data, err := os.ReadFile(store.path(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.path(keys[1]), data, 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := LoadDisk(context.Background(), store2, NewCache(), diskOpt(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if ls.Corrupt != 1 {
		t.Errorf("load stats = %s, want corrupt=1 (content-address mismatch)", ls)
	}
}

// TestDiskTierChaos: seeded disk-io faults on the write path (failed and
// torn writes) and the read path (failed and corrupt reads) never corrupt
// a served result: every request of every run returns the same times a
// disk-free run produces, and the loader's accounting covers every entry.
func TestDiskTierChaos(t *testing.T) {
	srcs := corpus(10)
	reference := run(t, srcs, Options{Workers: 2})
	if err := reference.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		dir := t.TempDir()
		store, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		store.SetFaultHook(faults.MustNew(faults.Plan{
			Seed: seed, DiskFail: 0.2, DiskShortWrite: 0.3,
			Stages: []string{faults.StageDiskWrite},
		}).Probe)
		cold := run(t, srcs, diskOpt(NewCache(), store))
		if err := cold.FirstErr(); err != nil {
			t.Fatalf("seed %d: disk faults failed a request: %v", seed, err)
		}

		// Restart under read-path chaos: corrupt reads quarantine, failed
		// reads are left for the next load, and whatever survives is
		// verified.
		store2, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		store2.SetFaultHook(faults.MustNew(faults.Plan{
			Seed: seed + 100, DiskFail: 0.2, DiskCorrupt: 0.2,
			Stages: []string{faults.StageDiskRead},
		}).Probe)
		cache2 := NewCache()
		ls, err := LoadDisk(context.Background(), store2, cache2, diskOpt(nil, nil))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ls.Loaded+ls.Stale+ls.Corrupt+ls.Errors != ls.Scanned {
			t.Errorf("seed %d: load accounting does not cover the scan: %s", seed, ls)
		}
		store2.SetFaultHook(nil)
		warm := run(t, srcs, diskOpt(cache2, store2))
		if err := warm.FirstErr(); err != nil {
			t.Fatalf("seed %d: warm run failed: %v", seed, err)
		}
		for i := range warm.Loops {
			w, r := warm.Loops[i].Machines[0], reference.Loops[i].Machines[0]
			if w.SyncTime != r.SyncTime || w.ListTime != r.ListTime {
				t.Errorf("seed %d loop %d: chaos-surviving times (%d, %d) != reference (%d, %d)",
					seed, i, w.ListTime, w.SyncTime, r.ListTime, r.SyncTime)
			}
			if err := w.Sync.Validate(); err != nil {
				t.Errorf("seed %d loop %d: invalid schedule served: %v", seed, i, err)
			}
		}
	}
}
