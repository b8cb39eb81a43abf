package passes

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"doacross/internal/dep"
	"doacross/internal/dfg"
	"doacross/internal/diag"
	"doacross/internal/lang"
	"doacross/internal/syncop"
	"doacross/internal/tac"
)

// fig1 is the paper's running example (Fig. 1(a)).
const fig1 = `DO I = 1, N
S1: B[I] = A[I-2] + E[I+1]
S2: G[I-3] = A[I-1] * E[I+2]
S3: A[I] = B[I] + C[I+3]
ENDDO`

func TestDefaultOrder(t *testing.T) {
	got := New(Options{}).Names()
	want := []string{"parse", "ifconvert", "analyze", "syncinsert", "codegen", "graph"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("default pipeline = %v, want %v", got, want)
	}
}

func TestOptionalPassInsertion(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want []string
	}{
		{"unroll", Options{Unroll: 4},
			[]string{"parse", "unroll", "ifconvert", "analyze", "syncinsert", "codegen", "graph"}},
		{"unroll-1-is-noop", Options{Unroll: 1},
			[]string{"parse", "ifconvert", "analyze", "syncinsert", "codegen", "graph"}},
		{"migrate", Options{Migrate: true},
			[]string{"parse", "ifconvert", "analyze", "migrate", "syncinsert", "codegen", "graph"}},
		{"no-ifconvert", Options{NoIfConvert: true},
			[]string{"parse", "analyze", "syncinsert", "codegen", "graph"}},
		{"everything", Options{Unroll: 2, Migrate: true, NoIfConvert: true},
			[]string{"parse", "unroll", "analyze", "migrate", "syncinsert", "codegen", "graph"}},
	}
	for _, tc := range cases {
		if got := New(tc.opts).Names(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: pipeline = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMatchesHardWiredSequence is the acceptance check that the default
// pipeline is byte-identical to the historical hard-wired compile sequence.
func TestMatchesHardWiredSequence(t *testing.T) {
	ctx, err := Compile(fig1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loop := lang.MustParse(fig1)
	a := dep.Analyze(loop)
	sl := syncop.Insert(a, syncop.Options{})
	code, err := tac.Generate(sl)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dfg.Build(code, a)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ctx.Sync.String(), sl.String(); got != want {
		t.Errorf("sync form diverges:\n%s\nvs\n%s", got, want)
	}
	if got, want := ctx.Code.Listing(), code.Listing(); got != want {
		t.Errorf("TAC diverges:\n%s\nvs\n%s", got, want)
	}
	if got, want := ctx.Graph.SyncInfo(), g.SyncInfo(); got != want {
		t.Errorf("graph diverges:\n%s\nvs\n%s", got, want)
	}
}

func TestParseDiagnosticPosition(t *testing.T) {
	_, err := Compile("DO I = 1, N\nS1: B[I] = ,\nENDDO", Options{})
	if err == nil {
		t.Fatal("bad source compiled")
	}
	d, ok := diag.As(err)
	if !ok {
		t.Fatalf("error %v is not a Diagnostic", err)
	}
	if d.Stage != "lang" {
		t.Errorf("stage = %q, want lang", d.Stage)
	}
	if d.Pos.Line != 2 {
		t.Errorf("error position = %v, want line 2", d.Pos)
	}
}

func TestCodegenRejectsGuardWithoutIfConvert(t *testing.T) {
	src := "DO I = 1, N\nS1: A[I] = A[I-1] + 1\nS2: IF (E[I] > 0) B[I] = A[I]\nENDDO"
	// With if-conversion (default), the guarded loop compiles.
	if _, err := Compile(src, Options{}); err != nil {
		t.Fatalf("guarded loop failed under default pipeline: %v", err)
	}
	// Without it, codegen must reject the guarded statement and point at it.
	ctx, err := Compile(src, Options{NoIfConvert: true})
	if err == nil {
		t.Fatal("guarded loop compiled without the ifconvert pass")
	}
	d, ok := diag.As(err)
	if !ok {
		t.Fatalf("error %v is not a Diagnostic", err)
	}
	if d.Stmt != "S2" {
		t.Errorf("diagnostic statement = %q, want S2", d.Stmt)
	}
	if d.Pos.Line != 3 {
		t.Errorf("diagnostic position = %v, want line 3 (the guarded statement)", d.Pos)
	}
	// The failure is also recorded in the context's diagnostics.
	if len(ctx.Diags.Errors()) != 1 {
		t.Errorf("ctx.Diags errors = %d, want 1", len(ctx.Diags.Errors()))
	}
}

func TestUnrollPass(t *testing.T) {
	ctx, err := Compile(fig1, Options{Unroll: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ctx.UnrollFactor != 4 {
		t.Errorf("UnrollFactor = %d, want 4", ctx.UnrollFactor)
	}
	if got := len(ctx.Loop.Body); got != 12 {
		t.Errorf("unrolled body = %d statements, want 12", got)
	}
	// An invalid factor surfaces as a positioned unroll diagnostic.
	if _, err := Compile(fig1, Options{Unroll: -2}); err == nil {
		t.Error("negative unroll factor accepted")
	} else if d, ok := diag.As(err); !ok || d.Stage != "unroll" {
		t.Errorf("unroll error = %v, want unroll diagnostic", err)
	}
}

func TestMigratePass(t *testing.T) {
	ctx, err := Compile(fig1, Options{Migrate: true})
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Migration == nil {
		t.Fatal("migrate pass left no Migration result")
	}
	if ctx.Migration.After > ctx.Migration.Before {
		t.Errorf("migration raised LBD %d -> %d", ctx.Migration.Before, ctx.Migration.After)
	}
}

// countingTracer records pass observations, guarding against concurrent use.
type countingTracer struct {
	mu   sync.Mutex
	obs  map[string]int
	errs map[string]int
}

func (c *countingTracer) ObservePass(name string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.obs == nil {
		c.obs = map[string]int{}
	}
	c.obs[name]++
}

func (c *countingTracer) PassError(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.errs == nil {
		c.errs = map[string]int{}
	}
	c.errs[name]++
}

func TestTracerAndTrace(t *testing.T) {
	tr := &countingTracer{}
	ctx, err := Compile(fig1, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	names := New(Options{}).Names()
	if got := len(ctx.Trace.Timings); got != len(names) {
		t.Fatalf("trace has %d timings, want %d", got, len(names))
	}
	for i, tm := range ctx.Trace.Timings {
		if tm.Pass != names[i] {
			t.Errorf("timing %d = %s, want %s", i, tm.Pass, names[i])
		}
	}
	for _, n := range names {
		if tr.obs[n] != 1 {
			t.Errorf("tracer saw %s %d times, want 1", n, tr.obs[n])
		}
	}
	if len(tr.errs) != 0 {
		t.Errorf("tracer saw errors on a clean compile: %v", tr.errs)
	}
	if s := ctx.Trace.String(); !strings.Contains(s, "total") {
		t.Errorf("trace report missing total:\n%s", s)
	}
	// A failing compile reports the error to the tracer too.
	tr2 := &countingTracer{}
	if _, err := Compile("DO I = ,", Options{Tracer: tr2}); err == nil {
		t.Fatal("bad source compiled")
	}
	if tr2.errs["parse"] != 1 {
		t.Errorf("tracer parse errors = %d, want 1", tr2.errs["parse"])
	}
}

func TestDumpSelection(t *testing.T) {
	ctx, err := Compile(fig1, Options{Dump: []string{"syncinsert"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ctx.Trace.Artifact("syncinsert"); !ok {
		t.Error("requested artifact missing")
	}
	if _, ok := ctx.Trace.Artifact("codegen"); ok {
		t.Error("unrequested artifact dumped")
	}
	all, err := Compile(fig1, Options{Dump: []string{"all"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range New(Options{}).Names() {
		if a, ok := all.Trace.Artifact(n); !ok || a == "" {
			t.Errorf("Dump=all missing artifact for %s", n)
		}
	}
}

func TestRunLoopDoesNotMutateInput(t *testing.T) {
	loop := lang.MustParse(fig1)
	before := loop.String()
	ctx, err := CompileLoop(loop, Options{Unroll: 2, Migrate: true})
	if err != nil {
		t.Fatal(err)
	}
	if loop.String() != before {
		t.Error("transforming passes mutated the input loop")
	}
	if ctx.Loop == loop {
		t.Error("context still aliases the input loop after transforms")
	}
}
