package pipeline

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/passes"
	"doacross/internal/scheditest"
)

// refSourceKey and refKey are the compile-memo and problem key derivations
// as they were first defined, by string concatenation and fmt: every key
// the caches and the disk tier use is pinned to them.
func refSourceKey(src, salt string) dfg.Fingerprint {
	return dfg.Fingerprint(sha256.Sum256([]byte("compile\x00" + salt + "\x00" + src)))
}

func refKey(k keySet, space string, cfg dlx.Config) dfg.Fingerprint {
	if space == keySched {
		if k.exSalt == "" {
			return dfg.KeyFrom(k.fp, cfg, keySched, k.schedSalt)
		}
		return dfg.KeyFrom(k.fp, cfg, keySched, k.schedSalt, k.exSalt)
	}
	return dfg.KeyFrom(k.fp, cfg, space, k.schedSalt, fmt.Sprintf("n=%d w=%d", k.n, k.window), k.exSalt)
}

// TestKeysMatchReference holds sourceKey and keySet.key to the reference
// derivations over the wide corpus, every backend's salts, trip counts 1,
// 100 and MaxTrip and windows 0 and 5, plus a source too long for
// sourceKey's stack buffer: the hashing may change, the keys may not.
func TestKeysMatchReference(t *testing.T) {
	count := 30
	if testing.Short() {
		count = 10
	}
	cases := scheditest.WideCorpus(t, filepath.Join("..", "..", "testdata", "kernels"), count)
	long := cases[0].Graph.Prog.Sync.Base.String() + strings.Repeat("! padding past the stack buffer\n", 100)
	cfg := dlx.Standard(4, 1)
	for _, backend := range append([]string{""}, passes.BackendNames()...) {
		opt := Options{Compile: passes.Options{Backend: backend}}
		compileSalt, schedSalt := opt.compileSalt(), opt.salt()
		if got, want := sourceKey(long, compileSalt), refSourceKey(long, compileSalt); got != want {
			t.Fatalf("backend %q: long source key %s, want %s", backend, got, want)
		}
		for _, c := range cases {
			src := c.Graph.Prog.Sync.Base.String()
			if got, want := sourceKey(src, compileSalt), refSourceKey(src, compileSalt); got != want {
				t.Fatalf("backend %q, %s: source key %s, want %s", backend, c.Name, got, want)
			}
			fp := c.Graph.Fingerprint()
			for _, n := range []int{1, 100, MaxTrip} {
				for _, window := range []int{0, 5} {
					k := keySet{fp: fp, schedSalt: schedSalt, exSalt: opt.exactSalt(n), n: n, window: window}
					for _, space := range []string{keySched, keyTime, keyDisk} {
						if got, want := k.key(space, cfg), refKey(k, space, cfg); got != want {
							t.Fatalf("backend %q, %s, n=%d w=%d: %s key %s, want %s",
								backend, c.Name, n, window, space, got, want)
						}
					}
				}
			}
		}
	}
}
