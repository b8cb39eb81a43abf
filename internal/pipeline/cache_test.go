package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"doacross/internal/dep"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/lang"
	"doacross/internal/syncop"
	"doacross/internal/tac"
)

func buildGraph(t testing.TB, src string) *dfg.Graph {
	t.Helper()
	a := dep.Analyze(lang.MustParse(src))
	p, err := tac.Generate(syncop.Insert(a, syncop.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	g, err := dfg.Build(p, a)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCacheFirstWriterWins(t *testing.T) {
	c := NewCache()
	k := buildGraph(t, fig1).Fingerprint()
	v1, loaded := c.Put(k, "first")
	if loaded || v1 != "first" {
		t.Fatalf("first Put = %v, %v", v1, loaded)
	}
	v2, loaded := c.Put(k, "second")
	if !loaded || v2 != "first" {
		t.Fatalf("second Put = %v, %v; want first writer's value", v2, loaded)
	}
	got, ok := c.Get(k)
	if !ok || got != "first" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// TestCacheConcurrentOneFingerprint is the satellite race test: many
// goroutines Get and Put one fingerprint concurrently. Under -race this
// checks the publication discipline; the assertion checks that exactly one
// value ever becomes visible.
func TestCacheConcurrentOneFingerprint(t *testing.T) {
	c := NewCache()
	k := buildGraph(t, fig1).Fingerprint()
	const goroutines = 32
	const rounds = 200
	var wg sync.WaitGroup
	values := make([]any, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := fmt.Sprintf("value-%d", g)
			var last any
			for r := 0; r < rounds; r++ {
				if v, ok := c.Get(k); ok {
					last = v
				}
				v, _ := c.Put(k, mine)
				last = v
			}
			values[g] = last
		}(g)
	}
	wg.Wait()
	want, ok := c.Get(k)
	if !ok {
		t.Fatal("key vanished")
	}
	for g, v := range values {
		if v != want {
			t.Errorf("goroutine %d observed %v, cache holds %v", g, v, want)
		}
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestCacheConcurrentManyKeys(t *testing.T) {
	c := NewCache()
	keys := make([]dfg.Fingerprint, 64)
	for i := range keys {
		keys[i] = buildGraph(t, fmt.Sprintf("DO I = 1, N\nA[I] = A[I-1] + %d\nENDDO", i)).Fingerprint()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, k := range keys {
				c.Put(k, i)
				if v, ok := c.Get(k); !ok || v.(int) != i {
					t.Errorf("key %d: got %v, %v", i, v, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != len(keys) {
		t.Errorf("Len = %d, want %d", c.Len(), len(keys))
	}
}

func TestFingerprintProperties(t *testing.T) {
	g1 := buildGraph(t, fig1)
	g2 := buildGraph(t, fig1)
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Error("identical sources fingerprint differently")
	}
	g3 := buildGraph(t, "DO I = 1, N\nA[I] = A[I-1] + 1\nENDDO")
	if g1.Fingerprint() == g3.Fingerprint() {
		t.Error("different loops share a fingerprint")
	}
	// Machine shape matters, its name does not.
	a := dlx.Standard(4, 1)
	b := dlx.Standard(4, 1)
	b.Name = "renamed"
	if dfg.ConfigKey(g1, a) != dfg.ConfigKey(g1, b) {
		t.Error("machine name leaked into the cache key")
	}
	if dfg.ConfigKey(g1, a) == dfg.ConfigKey(g1, dlx.Standard(2, 1)) {
		t.Error("issue width ignored by the cache key")
	}
	if dfg.ConfigKey(g1, a) == dfg.ConfigKey(g1, dlx.Uniform(4, 1)) {
		t.Error("latencies ignored by the cache key")
	}
	if dfg.ConfigKey(g1, a, "x") == dfg.ConfigKey(g1, a, "y") {
		t.Error("salt ignored by the cache key")
	}
	if dfg.ConfigKey(g1, a, "xy") == dfg.ConfigKey(g1, a, "x", "y") {
		t.Error("salt concatenation ambiguous")
	}
	if dfg.KeyFrom(g1.Fingerprint(), a, "s") != dfg.ConfigKey(g1, a, "s") {
		t.Error("KeyFrom diverges from ConfigKey")
	}
}

// TestCacheBoundedEviction: a bounded cache admits new keys by evicting an
// arbitrary resident entry, counts the evictions, and still honors
// first-writer-wins for keys that stay resident.
func TestCacheBoundedEviction(t *testing.T) {
	c := NewCacheBounded(cacheShards) // one entry per shard
	key := func(shard, n byte) dfg.Fingerprint {
		var k dfg.Fingerprint
		k[0], k[1] = shard, n
		return k
	}
	// Three distinct keys that land in the same shard: each newcomer evicts
	// the resident entry.
	for n := byte(0); n < 3; n++ {
		if _, loaded := c.Put(key(7, n), int(n)); loaded {
			t.Fatalf("fresh key %d reported as already bound", n)
		}
	}
	if got := c.Evictions(); got != 2 {
		t.Fatalf("Evictions = %d, want 2", got)
	}
	resident := 0
	for n := byte(0); n < 3; n++ {
		if _, ok := c.Get(key(7, n)); ok {
			resident++
		}
	}
	if resident != 1 {
		t.Fatalf("%d entries resident in the shard, want 1", resident)
	}
	// Re-Putting the resident key is first-writer-wins, not an eviction.
	if v, loaded := c.Put(key(7, 2), "other"); !loaded || v != 2 {
		t.Fatalf("resident re-Put = %v, %v; want first writer's value", v, loaded)
	}
	if got := c.Evictions(); got != 2 {
		t.Fatalf("re-Put evicted: Evictions = %d, want 2", got)
	}
	// Different shards do not contend for the bound.
	if _, loaded := c.Put(key(8, 0), "b"); loaded {
		t.Fatal("other shard's key reported as bound")
	}
	if got := c.Evictions(); got != 2 {
		t.Fatalf("cross-shard Put evicted: Evictions = %d, want 2", got)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}

	// An unbounded cache never evicts.
	u := NewCache()
	for n := byte(0); n < 100; n++ {
		u.Put(key(7, n), n)
	}
	if u.Evictions() != 0 || u.Len() != 100 {
		t.Fatalf("unbounded cache: Len=%d Evictions=%d", u.Len(), u.Evictions())
	}
}

// TestCacheFaultBypassesCache: a request whose "cache" probe fired neither
// reads nor writes the in-memory cache. On a cache that already holds its
// compilation it is served its own recompiled program — equal in value, not
// the cached pointer the fault declared corrupt — and the cache is left as
// it was.
func TestCacheFaultBypassesCache(t *testing.T) {
	cache := NewCache()
	warm := run(t, []string{fig1}, Options{Cache: cache})
	if err := warm.FirstErr(); err != nil {
		t.Fatal(err)
	}
	entries := cache.Len()
	hook := func(stage, _ string) error {
		if stage == stageCache {
			return errors.New("synthetic cache corruption")
		}
		return nil
	}
	b := run(t, []string{fig1}, Options{Cache: cache, FaultHook: hook})
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	lr, cached := b.Loops[0], warm.Loops[0]
	if lr.Prog == cached.Prog {
		t.Error("faulted request was served the cached compilation")
	}
	if lr.Listing() != cached.Listing() {
		t.Errorf("recompiled program differs:\n%s\nwant\n%s", lr.Listing(), cached.Listing())
	}
	if mr := lr.Machines[0]; mr.CacheHit || mr.SyncTime != cached.Machines[0].SyncTime {
		t.Errorf("faulted request: cache hit %v, sync time %d (want a fresh %d)",
			mr.CacheHit, mr.SyncTime, cached.Machines[0].SyncTime)
	}
	if n := cache.Len(); n != entries {
		t.Errorf("faulted request changed the cache from %d to %d entries", entries, n)
	}
	if h, m := b.Stats.CacheHits, b.Stats.CacheMisses; h+m != 0 {
		t.Errorf("faulted request consulted the cache: %d hits, %d misses", h, m)
	}
}
