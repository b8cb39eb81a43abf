package check_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"doacross/internal/check"
	"doacross/internal/dep"
	"doacross/internal/lang"
	"doacross/internal/syncop"
)

func lint(t *testing.T, src string) (errs, warns []string) {
	t.Helper()
	loop, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	l := check.Lint(loop)
	for _, d := range l.Errors() {
		errs = append(errs, d.Error())
	}
	for _, d := range l.Warnings() {
		warns = append(warns, d.Error())
	}
	return errs, warns
}

func wantFinding(t *testing.T, got []string, frag string) {
	t.Helper()
	for _, g := range got {
		if strings.Contains(g, frag) {
			return
		}
	}
	t.Errorf("no finding mentions %q; got %q", frag, got)
}

func TestLintCleanLoop(t *testing.T) {
	// The paper's Fig. 1(b): explicit synchronization exactly matching the
	// analyzed dependences.
	errs, warns := lint(t, `DOACROSS I = 1, N
  Wait_Signal(S3, I-2)
  S1: B[I] = A[I-2] + E[I+1]
  Wait_Signal(S3, I-1)
  S2: G[I-3] = A[I-1] * E[I+2]
  S3: A[I] = B[I] + C[I+3]
  Send_Signal(S3)
ENDDO`)
	if len(errs) != 0 || len(warns) != 0 {
		t.Errorf("clean loop has findings: errors %q, warnings %q", errs, warns)
	}
}

func TestLintMissingSend(t *testing.T) {
	errs, warns := lint(t, `DOACROSS I = 1, N
  Wait_Signal(S2, I-1)
  S1: A[I] = B[I-1] + 1
  Send_Signal(S1)
  S2: B[I] = A[I-1] * 2
ENDDO`)
	wantFinding(t, errs, "static deadlock")
	wantFinding(t, errs, "no matching Send_Signal(S2)")
	wantFinding(t, warns, "never awaited")
}

func TestLintUnknownLabel(t *testing.T) {
	errs, _ := lint(t, `DOACROSS I = 1, N
  Wait_Signal(S9, I-1)
  S1: A[I] = A[I-1] + 1
  Send_Signal(S1)
  Wait_Signal(S1, I-1)
  S2: B[I] = A[I-1] + 2
ENDDO`)
	wantFinding(t, errs, `unknown statement label "S9"`)
}

func TestLintNegativeDistance(t *testing.T) {
	errs, _ := lint(t, `DOACROSS I = 1, N
  Wait_Signal(S1, I+1)
  S1: A[I] = A[I-1] + 1
  Send_Signal(S1)
ENDDO`)
	wantFinding(t, errs, "future iteration")
}

func TestLintSelfSynchronization(t *testing.T) {
	errs, _ := lint(t, `DOACROSS I = 1, N
  S1: A[I] = A[I-1] + 1
  Wait_Signal(S2, I)
  S2: B[I] = A[I] * 2
  Send_Signal(S2)
ENDDO`)
	wantFinding(t, errs, "self-synchronization deadlock")
}

func TestLintDistanceZeroRedundant(t *testing.T) {
	_, warns := lint(t, `DOACROSS I = 1, N
  S1: A[I] = A[I-1] + 1
  Send_Signal(S1)
  Wait_Signal(S1, I)
  S2: B[I] = A[I] * 2
ENDDO`)
	wantFinding(t, warns, "always satisfied")
}

func TestLintSendBeforeSource(t *testing.T) {
	errs, _ := lint(t, `DOACROSS I = 1, N
  Send_Signal(S1)
  S1: A[I] = A[I-1] + 1
  Wait_Signal(S1, I-1)
  S2: B[I] = A[I-1] + 2
ENDDO`)
	wantFinding(t, errs, "precedes its source statement")
}

func TestLintDistanceMismatch(t *testing.T) {
	_, warns := lint(t, `DOACROSS I = 1, N
  S1: A[I] = B[I] + 1
  Send_Signal(S1)
  Wait_Signal(S1, I-3)
  S2: C[I] = A[I-2] * 2
ENDDO`)
	wantFinding(t, warns, "matches no analyzed dependence")
}

func TestLintDuplicateSend(t *testing.T) {
	_, warns := lint(t, `DOACROSS I = 1, N
  S1: A[I] = A[I-1] + 1
  Send_Signal(S1)
  Send_Signal(S1)
  Wait_Signal(S1, I-1)
  S2: B[I] = A[I-1] + 2
ENDDO`)
	wantFinding(t, warns, "duplicate Send_Signal(S1)")
}

// TestLintTransitiveRedundancy: Wait_Signal(S3, I-1) before S1 makes both
// other waits redundant — Wait_Signal(S1, I-1) directly (completing S3 of
// the previous iteration implies completing its S1), and the trailing
// Wait_Signal(S3, I-2) by chaining the S3 wait across two iterations
// (distances sum to 2 and the anchors compose). The load-bearing wait
// itself must not be flagged.
func TestLintTransitiveRedundancy(t *testing.T) {
	loop, err := lang.Parse(`DOACROSS I = 1, N
  Wait_Signal(S3, I-1)
  S1: A[I] = C[I-1] + 1
  Wait_Signal(S1, I-1)
  S2: B[I] = A[I-1] * 2
  Wait_Signal(S3, I-2)
  S3: C[I] = B[I-1] + 3
  Send_Signal(S1)
  Send_Signal(S3)
ENDDO`)
	if err != nil {
		t.Fatal(err)
	}
	l := check.Lint(loop)
	var redundant []string
	for _, d := range l {
		if strings.Contains(d.Error(), "subsumed by transitive synchronization") {
			redundant = append(redundant, d.Error())
		}
	}
	if len(redundant) != 2 {
		t.Fatalf("want two transitive-redundancy findings, got %q (all: %s)", redundant, l)
	}
	wantFinding(t, redundant, "Wait_Signal(S1, I-1) is redundant")
	wantFinding(t, redundant, "Wait_Signal(S3, I-2) is redundant")
	for _, r := range redundant {
		if strings.Contains(r, "Wait_Signal(S3, I-1) is redundant") {
			t.Errorf("load-bearing wait flagged: %s", r)
		}
	}
}

// TestLintDuplicateWait: of two identical waits only the later is flagged
// (the first serves as its chain, then stays).
func TestLintDuplicateWait(t *testing.T) {
	loop, err := lang.Parse(`DOACROSS I = 1, N
  Wait_Signal(S2, I-1)
  S1: A[I] = B[I-1] + 1
  Wait_Signal(S2, I-1)
  S2: B[I] = A[I-1] * 2
  Send_Signal(S2)
ENDDO`)
	if err != nil {
		t.Fatal(err)
	}
	l := check.Lint(loop)
	count := 0
	for _, d := range l {
		if strings.Contains(d.Error(), "subsumed by transitive synchronization") {
			count++
		}
	}
	if count != 1 {
		t.Errorf("want 1 duplicate-wait finding, got %d:\n%s", count, l)
	}
}

// TestLintSyncCompilerOutput: compiler-inserted synchronization never
// produces lint errors (warnings — e.g. transitivity-redundant waits — are
// legitimate findings on it).
func TestLintSyncCompilerOutput(t *testing.T) {
	for _, src := range []string{paperSrc, condSrc} {
		loop, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		sl := syncop.Insert(dep.Analyze(loop), syncop.Options{})
		if l := check.LintSync(sl); len(l.Errors()) != 0 {
			t.Errorf("compiler-inserted sync lints with errors:\n%s", l.Errors())
		}
	}
}

func TestLintNoSyncOps(t *testing.T) {
	loop, err := lang.Parse("DO I = 1, N\n  S1: A[I] = B[I] + 1\nENDDO")
	if err != nil {
		t.Fatal(err)
	}
	if l := check.Lint(loop); len(l) != 0 {
		t.Errorf("loop without sync ops has findings: %s", l)
	}
}

// TestLintProvablyRedundantArc: a hand-written wait guarding a statement pair
// the precise analysis proves independent is flagged with the certificate.
func TestLintProvablyRedundantArc(t *testing.T) {
	_, warns := lint(t, `DOACROSS I = 1, N
  S1: A[2*I] = B[I] + 1
  Wait_Signal(S1, I-1)
  S2: C[I] = A[2*I+1] * 2
  Send_Signal(S1)
ENDDO`)
	wantFinding(t, warns, "provably-redundant synchronization arc")
	wantFinding(t, warns, "proven independent (gcd)")
}

// TestLintConservativeHotspot: a statement party to several pair decisions
// the analyzer could not refine is flagged with line:col and the reasons.
func TestLintConservativeHotspot(t *testing.T) {
	_, warns := lint(t, `DOACROSS I = 1, N
  Wait_Signal(S3, I-1)
  S1: A[X[I]] = B[I] + 1
  S2: C[I] = A[X[I]+1] * 2
  S3: A[I*I] = C[I-1] + 3
  Send_Signal(S3)
ENDDO`)
	wantFinding(t, warns, "conservative-dependence hotspot")
	wantFinding(t, warns, "non-affine")
	found := false
	for _, w := range warns {
		if strings.Contains(w, "hotspot") && strings.Contains(w, "line 3") {
			found = true
		}
	}
	if !found {
		t.Errorf("hotspot finding carries no source position; got %q", warns)
	}
}

// TestLintDistanceBudget lints the compiler-inserted synchronization of a
// three-statement loop whose S2 waits on S1 at distance d. That wait is
// subsumed by a chain of d copies of Wait_Signal(S1, I-1), and finding the
// chain visits about 3d search states. At d = 1000 that is within the
// budget: the finding is the reference linter's, chain and all. At d =
// 100000 the search runs out of budget, so the wait gets no finding. Either
// way linting stays within fixed time and allocation bounds; the linter it
// replaced took seconds and gigabytes at d = 4000 and beyond.
func TestLintDistanceBudget(t *testing.T) {
	for _, c := range []struct {
		d         int
		redundant bool
	}{{1000, true}, {100000, false}} {
		src := fmt.Sprintf("DO I = 1, N\n  S1: A[I] = A[I-1] + B[I]\n  S2: C[I] = A[I-%d] + C[I-1]\n  S3: E[I] = C[I-2] + A[I-3]\nENDDO", c.d)
		loop, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		sl := syncop.Insert(dep.Analyze(loop), syncop.Options{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		l := check.LintSync(sl)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 4<<20 {
			t.Errorf("d = %d: linting allocated %d bytes, want at most 4 MiB", c.d, bytes)
		}
		if elapsed > 2*time.Second {
			t.Errorf("d = %d: linting took %v, want at most 2s", c.d, elapsed)
		}
		subsumed := fmt.Sprintf("Wait_Signal(S1, I-%d) is redundant", c.d)
		var finding string
		for _, d := range l {
			if strings.Contains(d.Msg, subsumed) {
				finding = d.Msg
			}
		}
		if got := finding != ""; got != c.redundant {
			t.Fatalf("d = %d: redundant-wait finding present = %v, want %v:\n%s", c.d, got, c.redundant, l)
		}
		if !c.redundant {
			continue
		}
		if n := strings.Count(finding, "Wait_Signal(S1, I-1)"); n != c.d {
			t.Errorf("d = %d: the chain has %d links, want %d", c.d, n, c.d)
		}
		if want := refLintSync(sl); !sameDiags(l, want) {
			t.Errorf("d = %d: findings differ from the reference\n got %s\nwant %s", c.d, l, want)
		}
	}
}

// TestLintWaitCountBudget lints the compiler-inserted synchronization of a
// two-statement loop whose S2 waits on S1 at 1,000 distances from 5,000
// up, each behind the chain of distance-1 waits of S1. Every search then
// reaches its state bound, and without the bound on the examinations of
// one call linting would examine about 4,096·W² (state, wait) pairs for W
// waits: 16 s at this size on a 2-vCPU host, against 45 ms with it. The
// searches must examine exactly the bound, which is what caps the time
// (a wall-clock bound would be at the race detector's mercy), linting
// must stay within a fixed allocation bound, and the waits the bound cuts
// short get no finding.
func TestLintWaitCountBudget(t *testing.T) {
	terms := make([]string, 1000)
	for j := range terms {
		terms[j] = fmt.Sprintf("A[I-%d]", 5000+37*j)
	}
	src := fmt.Sprintf("DO I = 1, N\n  S1: A[I] = A[I-1] + B[I]\n  S2: C[I] = %s + C[I-1]\nENDDO", strings.Join(terms, " + "))
	loop, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sl := syncop.Insert(dep.Analyze(loop), syncop.Options{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := check.LintSync(sl)
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 4<<20 {
		t.Errorf("linting allocated %d bytes, want at most 4 MiB", bytes)
	}
	if _, work := check.RedundantSearchCost(sl); work != check.RedundantWork {
		t.Errorf("the searches examined %d (state, wait) pairs, want the bound %d", work, check.RedundantWork)
	}
	for _, d := range l {
		if strings.Contains(d.Msg, "is redundant") {
			t.Errorf("a search cut short reported a finding: %s", d.Msg)
		}
	}
}
