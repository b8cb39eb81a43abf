package dep_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"doacross/internal/dep"
	"doacross/internal/lang"
	"doacross/internal/scheditest"
)

// analysisDigests are the SHA-256 digests of the analyses of identityLoops
// (renderAnalysis under the precise and the baseline options), recorded
// before AnalyzeOpts published its dependences at their exact number: the
// analysis must not have changed.
var analysisDigests = map[string]string{
	"wide":    "0dbaf0729aeab509950baa16ff1cb67104da545fa16db08688f0c3b840dd83ef",
	"sweep40": "bd7e82053d1303c9f63d55301525cbc17bcbab81e3081d33c23f48beeaae07ef",
	"sweep80": "5f59d2423a498cd5c37b1f3869121cd9104ad91384ca6e3d42442b5b529e8cd8",
}

// identityLoops returns the loops of the wide corpus, then of the size
// sweep up to 40 statements, then (without -short) its 80-statement loops,
// each part under its analysisDigests key.
func identityLoops(t *testing.T) (parts []string, loops [][]*lang.Loop) {
	t.Helper()
	part := func(cases []scheditest.Case) []*lang.Loop {
		out := make([]*lang.Loop, len(cases))
		for i, c := range cases {
			out[i] = c.Graph.Prog.Sync.Base
		}
		return out
	}
	wide := part(scheditest.WideCorpus(t, filepath.Join("..", "..", "testdata", "kernels"), 120))
	sweep := part(scheditest.SweepCorpus(t, 80))
	n40 := 0
	for n40 < len(sweep) && len(sweep[n40].Body) <= 40 {
		n40++
	}
	parts, loops = []string{"wide", "sweep40"}, [][]*lang.Loop{wide, sweep[:n40]}
	if !testing.Short() {
		parts, loops = append(parts, "sweep80"), append(loops, sweep[n40:])
	}
	return parts, loops
}

// renderRef renders every field of a reference but the node's address.
func renderRef(r dep.Ref) string {
	return fmt.Sprintf("S%d/%s/w=%v/pos=%d/merge=%v/array=%v", r.Stmt, r.Name(), r.Write, r.Pos, r.Merge, r.Array != nil)
}

// renderAnalysis renders the loop's analyses under the precise and the
// baseline options: every dependence and pair decision field by field, and
// every diagnostic.
func renderAnalysis(loop *lang.Loop) string {
	var b strings.Builder
	for _, opt := range []dep.Options{{}, {Baseline: true}} {
		a := dep.AnalyzeOpts(loop, opt)
		fmt.Fprintf(&b, "baseline=%v deps=%d pairs=%d\n", opt.Baseline, len(a.Deps), len(a.Pairs))
		for _, d := range a.Deps {
			fmt.Fprintf(&b, "%s %s %s d=%d cons=%v %+v\n", d.Kind, renderRef(d.Src), renderRef(d.Snk), d.Distance, d.Conservative, d.Evidence)
		}
		for _, p := range a.Pairs {
			fmt.Fprintf(&b, "%s %s %s %+v deps=%d\n", renderRef(p.A), renderRef(p.B), p.Verdict, p.Evidence, p.Deps)
		}
		for _, d := range a.Diagnostics() {
			fmt.Fprintf(&b, "%s\n", d)
		}
	}
	return b.String()
}

// TestAnalyzeIdentity holds AnalyzeOpts to what the analysis produced
// before its dependences were published at their exact number: over the
// wide corpus and the size sweep, the precise and baseline analyses
// (dependences, pair decisions and diagnostics) match their recorded
// digests, and Deps and Pairs are exactly as long as their capacities. The
// analyses also match when four goroutines share the pooled buffers.
func TestAnalyzeIdentity(t *testing.T) {
	parts, loops := identityLoops(t)
	var all []*lang.Loop
	for i, part := range parts {
		h := sha256.New()
		for k, l := range loops[i] {
			fmt.Fprintf(h, "%s#%d\n%s", part, k, renderAnalysis(l))
			for _, opt := range []dep.Options{{}, {Baseline: true}} {
				a := dep.AnalyzeOpts(l, opt)
				if len(a.Deps) != cap(a.Deps) || len(a.Pairs) != cap(a.Pairs) {
					t.Errorf("%s#%d (baseline %v): %d dependences with capacity %d, %d pairs with capacity %d",
						part, k, opt.Baseline, len(a.Deps), cap(a.Deps), len(a.Pairs), cap(a.Pairs))
				}
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		t.Logf("%s: %d loops, analysis digest %s", part, len(loops[i]), got)
		if want := analysisDigests[part]; got != want {
			t.Errorf("%s: analysis digest %s, recorded %s", part, got, want)
		}
		if i < 2 {
			all = append(all, loops[i]...)
		}
	}

	want := make([]string, len(all))
	for i, l := range all {
		want[i] = renderAnalysis(l)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range all {
				k := (i + w*len(all)/4) % len(all)
				if got := renderAnalysis(all[k]); got != want[k] {
					t.Errorf("worker %d, loop %d: analysis\n%s want\n%s", w, k, got, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
