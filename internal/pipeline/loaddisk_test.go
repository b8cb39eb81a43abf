// The warm-restart benchmark and the footprint pin of restored entries.
// Excluded under the race detector, which slows the load tenfold and
// keeps shadow memory of its own.

//go:build !race

package pipeline

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"doacross/internal/dfg"
	"doacross/internal/loopgen"
)

// warmTier is a disk tier shaped like the one schedbench's serve-warm
// restarts from: warmTierLoops distinct loopgen loops, the six shapes in
// turn with 1-6 statements, each served at both warmTierTrips on the
// default machine through one cache, as a daemon persists them. It is
// built once per test binary and kept as payloads by key.
var warmTier struct {
	once     sync.Once
	payloads map[dfg.Fingerprint][]byte
	err      error
}

const warmTierLoops = 500

var warmTierTrips = []int{100, 1000}

// warmTierStore writes warmTier's entries into a fresh store under tb's
// temporary directory.
func warmTierStore(tb testing.TB) *DiskStore {
	tb.Helper()
	warmTier.once.Do(func() { warmTier.payloads, warmTier.err = buildWarmTier() })
	if warmTier.err != nil {
		tb.Fatal(warmTier.err)
	}
	dir := tb.TempDir()
	store, err := OpenDiskStore(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for k, payload := range warmTier.payloads {
		path := store.path(k)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(path, encodeEntry(payload), 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	if store, err = OpenDiskStore(dir); err != nil {
		tb.Fatal(err)
	}
	return store
}

func buildWarmTier() (map[dfg.Fingerprint][]byte, error) {
	dir, err := os.MkdirTemp("", "warm-tier-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := OpenDiskStore(dir)
	if err != nil {
		return nil, err
	}
	shapes := loopgen.Shapes()
	var reqs []Request
	seen := map[string]bool{}
	for k := uint64(0); len(reqs) < warmTierLoops; k++ {
		src := loopgen.Generate(k, loopgen.Options{Shape: shapes[k%uint64(len(shapes))], Stmts: 1 + int(k/uint64(len(shapes)))%6})
		if !seen[src] {
			seen[src] = true
			reqs = append(reqs, Request{Source: src})
		}
	}
	cache := NewCache()
	for _, n := range warmTierTrips {
		b, err := Run(reqs, Options{Cache: cache, Disk: store, N: n})
		if err == nil {
			err = b.FirstErr()
		}
		if err != nil {
			return nil, err
		}
	}
	keys, err := store.Keys()
	if err != nil {
		return nil, err
	}
	payloads := make(map[dfg.Fingerprint][]byte, len(keys))
	for _, k := range keys {
		if payloads[k], err = store.Get(k); err != nil {
			return nil, err
		}
	}
	return payloads, nil
}

// loadWarmTier restores store into a fresh cache, failing tb unless every
// entry loads.
func loadWarmTier(tb testing.TB, store *DiskStore) (*Cache, LoadStats) {
	cache := NewCache()
	ls, err := LoadDisk(context.Background(), store, cache, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if ls.Loaded != len(warmTier.payloads) || ls.Loaded != ls.Scanned {
		tb.Fatalf("load stats = %s, want all %d entries loaded", ls, len(warmTier.payloads))
	}
	return cache, ls
}

// BenchmarkLoadDisk prices the warm restart: one op is one LoadDisk of
// warmTier's ~1,000 entries into a fresh cache, on GOMAXPROCS workers,
// every entry re-earned (recompiled, verified, audited).
func BenchmarkLoadDisk(b *testing.B) {
	store := warmTierStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		loadWarmTier(b, store)
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/load")
	b.ReportMetric(float64(len(warmTier.payloads)), "entries")
}

// TestLoadedEntryFootprint pins the live heap a restored entry keeps: the
// compile memo, schedule entry and time entry LoadDisk publishes for
// warmTier's entries, divided by the entries loaded. The pin is the
// 10,807 B per entry measured before restored schedules took
// core.Schedule.Clone's layout (go1.24, linux/amd64). A reader that sizes
// row storage for anything but the rows it holds, or a schedule that keeps
// the reader's storage alive, shows here.
func TestLoadedEntryFootprint(t *testing.T) {
	const limit = 10807
	store := warmTierStore(t)
	var cache *Cache
	var ls LoadStats
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	cache, ls = loadWarmTier(t, store)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(cache)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(ls.Loaded)
	t.Logf("%d entries loaded: %.0f B of live heap per entry", ls.Loaded, per)
	if per > limit {
		t.Errorf("a restored entry keeps %.0f B of live heap, want <= %d", per, limit)
	}
}
