// Package perfect synthesizes the evaluation workload: five benchmark
// suites standing in for the Perfect-benchmark programs the paper measures
// (FLQ52, QCD, MDG, TRACK, ADM).
//
// The real Perfect Benchmarks are FORTRAN 77 applications that the paper
// runs through Parafrase to extract the DO loops it cannot parallelize,
// converts to DOACROSS form, and compiles with a DLX compiler. Neither the
// benchmarks nor Parafrase are available, so this package generates
// deterministic loop suites whose aggregate characteristics follow the
// paper's Table 1 and §4.1 taxonomy:
//
//   - FLQ52, QCD and TRACK carry only lexically backward dependences (LBD);
//     MDG and ADM mix in a few forward ones (LFD).
//   - Loop bodies span the paper's DOACROSS types: induction variables
//     (type 3), reductions (type 4), simple subscript expressions (type 5)
//     and mixed/other (type 6).
//   - QCD is dominated by tight recurrences whose synchronization path is
//     essentially the whole body — the shape on which list scheduling is
//     already near-optimal and the paper measures its smallest improvement.
//   - TRACK and FLQ52 put many independent instructions between each
//     Wait_Signal and its sink, the shape on which the paper measures ~90 %
//     improvement.
//
// Every generated loop is validated against its intended dependence shape
// (via the dep analyzer and the dfg partition) at generation time, with
// bounded deterministic retries, so the suites are reproducible bit for bit.
package perfect

import (
	"fmt"
	"math/rand"
	"strings"

	"doacross/internal/dep"
	"doacross/internal/dfg"
	"doacross/internal/lang"
	"doacross/internal/syncop"
	"doacross/internal/tac"
)

// Template names a generated loop shape.
type Template int

// Loop templates, following the paper's DOACROSS taxonomy.
const (
	// TrueRecurrence is an unavoidable LBD: the dependence sink's value
	// flows into the dependence source (A[I] = f(A[I-d])), possibly through
	// a chain of intermediate statements. Its Sigwat graph has a real
	// synchronization path.
	TrueRecurrence Template = iota
	// ConvertibleLBD is an LBD whose sink and source statements are data
	// independent: the new scheduler can issue the send before the wait,
	// converting it to LFD.
	ConvertibleLBD
	// ForwardDep is an LFD: the source statement is textually first.
	ForwardDep
	// Reduction is the paper's type-4 DOACROSS (S = S + expr).
	Reduction
	// Induction is the paper's type-3 DOACROSS (a scalar recurrence feeding
	// the body).
	Induction
	// ControlDep is the paper's type-1 DOACROSS: a conditionally executed
	// recurrence (IF (cond) A[I] = f(A[I-d])). If-conversion turns it into
	// straight-line code with a merge load and select, and synchronization
	// is inserted conservatively as if the dependence always fires.
	ControlDep
	// Doall has no loop-carried dependence; it contributes to the Table 1
	// loop counts but needs no synchronization.
	Doall
)

// String names the template.
func (t Template) String() string {
	switch t {
	case TrueRecurrence:
		return "true-recurrence"
	case ConvertibleLBD:
		return "convertible-lbd"
	case ForwardDep:
		return "forward-dep"
	case Reduction:
		return "reduction"
	case Induction:
		return "induction"
	case ControlDep:
		return "control-dep"
	case Doall:
		return "doall"
	}
	return fmt.Sprintf("Template(%d)", int(t))
}

// TemplateCount is one entry of a profile's loop mix.
type TemplateCount struct {
	Template Template
	Count    int
}

// Profile describes one synthetic benchmark.
type Profile struct {
	Name        string
	Description string
	Seed        uint64
	Mix         []TemplateCount
	// MinFiller/MaxFiller bound the number of independent filler statements
	// inserted around the dependence pattern — the "distance from a Wat to
	// its corresponding Snk" knob of §4.2.
	MinFiller, MaxFiller int
	// MaxDistance bounds dependence distances (>= 1).
	MaxDistance int
	// ChainLen bounds the length of value chains inside true recurrences.
	ChainLen int
	// N is the trip count used in the experiments (the paper uses 100).
	N int
}

// Loop is one generated loop with its metadata.
type Loop struct {
	Template Template
	Source   string
	AST      *lang.Loop
}

// Suite is one generated benchmark.
type Suite struct {
	Profile Profile
	Loops   []Loop
}

// Profiles returns the five benchmark profiles in the paper's table order.
func Profiles() []Profile {
	return []Profile{
		{
			Name:        "FLQ52",
			Description: "fluid dynamics; all-LBD loops with long independent sections",
			Seed:        0xF152,
			Mix: []TemplateCount{
				{TrueRecurrence, 5}, {ConvertibleLBD, 6}, {Reduction, 2}, {Doall, 4},
			},
			MinFiller: 12, MaxFiller: 20, MaxDistance: 3, ChainLen: 1, N: 100,
		},
		{
			Name:        "QCD",
			Description: "lattice gauge; tight recurrences with little slack",
			Seed:        0x9CD,
			Mix: []TemplateCount{
				{TrueRecurrence, 7}, {Reduction, 3}, {ControlDep, 1}, {Doall, 2},
			},
			MinFiller: 0, MaxFiller: 1, MaxDistance: 2, ChainLen: 0, N: 100,
		},
		{
			Name:        "MDG",
			Description: "molecular dynamics; mostly LBD with a few forward dependences",
			Seed:        0x3D6,
			Mix: []TemplateCount{
				{TrueRecurrence, 4}, {ConvertibleLBD, 6}, {ForwardDep, 2}, {Induction, 2}, {ControlDep, 2}, {Doall, 5},
			},
			MinFiller: 10, MaxFiller: 16, MaxDistance: 4, ChainLen: 2, N: 100,
		},
		{
			Name:        "TRACK",
			Description: "missile tracking; all-LBD, sinks far from their waits",
			Seed:        0x77AC,
			Mix: []TemplateCount{
				{TrueRecurrence, 3}, {ConvertibleLBD, 8}, {Reduction, 1}, {Doall, 3},
			},
			MinFiller: 14, MaxFiller: 22, MaxDistance: 2, ChainLen: 1, N: 100,
		},
		{
			Name:        "ADM",
			Description: "air pollution; large mixed loop population",
			Seed:        0xAD3,
			Mix: []TemplateCount{
				{TrueRecurrence, 6}, {ConvertibleLBD, 7}, {ForwardDep, 3}, {Reduction, 2}, {Induction, 2}, {ControlDep, 2}, {Doall, 6},
			},
			MinFiller: 8, MaxFiller: 14, MaxDistance: 4, ChainLen: 1, N: 100,
		},
	}
}

// Generate builds the suite for a profile. Generation is deterministic in
// the profile's seed.
func Generate(p Profile) (*Suite, error) {
	r := rand.New(rand.NewSource(int64(p.Seed)))
	s := &Suite{Profile: p}
	for _, mc := range p.Mix {
		for k := 0; k < mc.Count; k++ {
			loop, err := generateLoop(r, p, mc.Template)
			if err != nil {
				return nil, fmt.Errorf("perfect: %s loop %d (%v): %w", p.Name, k, mc.Template, err)
			}
			s.Loops = append(s.Loops, loop)
		}
	}
	return s, nil
}

// Suites generates all five benchmarks.
func Suites() ([]*Suite, error) {
	var out []*Suite
	for _, p := range Profiles() {
		s, err := Generate(p)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// MustSuites is Suites for known-good profiles.
func MustSuites() []*Suite {
	s, err := Suites()
	if err != nil {
		panic(err)
	}
	return s
}

// generateLoop builds one loop of the given template, retrying (with fresh
// randomness from r, which stays deterministic) until the generated loop
// verifiably has the intended dependence shape.
func generateLoop(r *rand.Rand, p Profile, tpl Template) (Loop, error) {
	const attempts = 64
	for a := 0; a < attempts; a++ {
		src := buildSource(r, p, tpl)
		loop, err := lang.Parse(src)
		if err != nil {
			return Loop{}, fmt.Errorf("generated source does not parse: %v\n%s", err, src)
		}
		if validate(loop, tpl) {
			return Loop{Template: tpl, Source: src, AST: loop}, nil
		}
	}
	return Loop{}, fmt.Errorf("no valid %v loop after %d attempts", tpl, attempts)
}

// validate checks the generated loop has the dependence shape its template
// promises.
func validate(loop *lang.Loop, tpl Template) bool {
	a := dep.Analyze(loop)
	switch tpl {
	case Doall:
		return a.IsDoall()
	case ForwardDep:
		if a.IsDoall() {
			return false
		}
		lfd, lbd := a.CountLexical()
		return lfd > 0 && lbd == 0
	case Reduction, Induction:
		return !a.IsDoall()
	}
	// LBD templates: must carry at least one backward dependence and build a
	// graph with the promised structure.
	lfd, lbd := a.CountLexical()
	if lbd == 0 || lfd > 0 {
		return false
	}
	prog, err := tac.Generate(syncop.Insert(a, syncop.Options{}))
	if err != nil {
		return false
	}
	g, err := dfg.Build(prog, a)
	if err != nil {
		return false
	}
	switch tpl {
	case TrueRecurrence, ControlDep:
		// The Sigwat component must contain a real synchronization path.
		return len(g.SyncPaths()) > 0
	case ConvertibleLBD:
		// At least one pair must be convertible: its wait cannot reach its
		// send, so the scheduler can order the send first. The simplest
		// sufficient witness is a pair arc candidate or a pair with no sync
		// path in a Sigwat component.
		if len(g.PairArcs()) > 0 {
			return true
		}
		pairs := 0
		for _, in := range prog.Instrs {
			if in.Op == tac.Wait {
				pairs++
			}
		}
		return pairs > len(g.SyncPaths())
	}
	return true
}

// name pools. Template arrays are disjoint from filler arrays so filler
// never creates accidental carried dependences.
var (
	coreArrays   = []string{"A", "B", "C", "D"}
	inputArrays  = []string{"E", "F", "G", "H"}
	fillerArrays = []string{"P", "Q", "R", "T", "U", "V", "W", "X", "Y", "Z"}
)

// buildSource emits the mini-FORTRAN source for one loop.
func buildSource(r *rand.Rand, p Profile, tpl Template) string {
	var body []string
	filler := func(k int) {
		for i := 0; i < k; i++ {
			dst := fillerArrays[r.Intn(len(fillerArrays))]
			a := inputArrays[r.Intn(len(inputArrays))]
			b := inputArrays[r.Intn(len(inputArrays))]
			op := []string{"+", "-", "*"}[r.Intn(3)]
			// The destination subscript is fixed at I+4 so two filler writes
			// to the same array stay loop-independent (distance 0), keeping
			// filler free of carried dependences by construction.
			body = append(body, fmt.Sprintf("%s[I+4] = %s[I+%d] %s %s[I-%d]",
				dst, a, 5+r.Intn(4), op, b, 5+r.Intn(4)))
		}
	}
	nf := p.MinFiller
	if p.MaxFiller > p.MinFiller {
		nf += r.Intn(p.MaxFiller - p.MinFiller + 1)
	}
	d := 1 + r.Intn(p.MaxDistance)
	op := []string{"+", "-", "*"}[r.Intn(3)]

	switch tpl {
	case TrueRecurrence:
		// Filler precedes the sink — in real codes the recurrence sits deep
		// in the loop body, which is what lets list scheduling hoist the wait
		// far ahead of its sink (§4.2, "the distance from a Wat to its
		// corresponding Snk is so far").
		carrier := "A"
		chain := r.Intn(p.ChainLen + 1)
		filler(nf / 2)
		body = append(body, fmt.Sprintf("B[I] = %s[I-%d] %s %s[I+1]", carrier, d, op, inputArrays[r.Intn(4)]))
		last := "B[I]"
		for c := 0; c < chain; c++ {
			dst := coreArrays[2+c%2] // C or D
			body = append(body, fmt.Sprintf("%s[I] = %s %s %s[I+2]", dst, last, op, inputArrays[r.Intn(4)]))
			last = dst + "[I]"
		}
		body = append(body, fmt.Sprintf("%s[I] = %s + %s[I+3]", carrier, last, inputArrays[r.Intn(4)]))
		filler(nf - nf/2)
	case ConvertibleLBD:
		// sink group independent of source group; disjoint subscript
		// expressions keep their address temps (and thus components) apart.
		filler(nf / 2)
		body = append(body, fmt.Sprintf("B[I+1] = A[I-%d] %s %s[I-1]", d+1, op, inputArrays[r.Intn(4)]))
		filler(nf - nf/2)
		body = append(body, fmt.Sprintf("A[I] = %s[I] + %s[I+2]", inputArrays[r.Intn(4)], inputArrays[r.Intn(4)]))
	case ForwardDep:
		body = append(body, fmt.Sprintf("A[I] = %s[I] %s %s[I+1]", inputArrays[r.Intn(4)], op, inputArrays[r.Intn(4)]))
		filler(nf)
		body = append(body, fmt.Sprintf("B[I] = A[I-%d] + %s[I+2]", d, inputArrays[r.Intn(4)]))
	case Reduction:
		filler(nf / 2)
		body = append(body, fmt.Sprintf("S = S + %s[I] * %s[I]", inputArrays[r.Intn(4)], inputArrays[r.Intn(4)]))
		filler(nf - nf/2)
	case Induction:
		body = append(body, "K = K + 2")
		body = append(body, fmt.Sprintf("A[I] = %s[I] + K", inputArrays[r.Intn(4)]))
		filler(nf)
	case ControlDep:
		filler(nf / 2)
		body = append(body, fmt.Sprintf("IF (%s[I] > 0) A[I] = A[I-%d] %s %s[I+1]",
			inputArrays[r.Intn(4)], d, op, inputArrays[r.Intn(4)]))
		filler(nf - nf/2)
	case Doall:
		if nf < 1 {
			nf = 1
		}
		filler(nf)
	}
	var sb strings.Builder
	sb.WriteString("DOACROSS I = 1, N\n")
	for _, st := range body {
		sb.WriteString("  " + st + "\n")
	}
	sb.WriteString("ENDDO\n")
	return sb.String()
}

// Characteristics are the Table 1 statistics of one suite.
type Characteristics struct {
	Name string
	// SourceLines counts lines of the generated mini-FORTRAN (the Table 1
	// "lines parsed by Parafrase" analogue).
	SourceLines int
	TotalLoops  int
	DoallLoops  int
	// DLXLines counts three-address instructions generated for the DOACROSS
	// loops (the "lines generated by DLX compiler" analogue).
	DLXLines int
	// LFD and LBD count loop-carried dependences by lexical direction.
	LFD, LBD int
}

// Characteristics computes the suite's Table 1 row.
func (s *Suite) Characteristics() (Characteristics, error) {
	return s.CharacteristicsWith(nil)
}

// CharacteristicsWith computes the suite's Table 1 row, reusing loops the
// caller has already compiled: compiled(i) returns the dependence analysis
// and three-address program of s.Loops[i] as the default compilation
// produces them, or nils for a loop this call analyzes and compiles
// itself. A nil compiled compiles every loop here.
func (s *Suite) CharacteristicsWith(compiled func(i int) (*dep.Analysis, *tac.Program)) (Characteristics, error) {
	c := Characteristics{Name: s.Profile.Name}
	for i, l := range s.Loops {
		c.TotalLoops++
		c.SourceLines += strings.Count(l.Source, "\n")
		var a *dep.Analysis
		var prog *tac.Program
		if compiled != nil {
			a, prog = compiled(i)
		}
		if a == nil || prog == nil {
			a, prog = dep.Analyze(l.AST), nil
		}
		if a.IsDoall() {
			c.DoallLoops++
			continue
		}
		lfd, lbd := a.CountLexical()
		c.LFD += lfd
		c.LBD += lbd
		if prog == nil {
			var err error
			if prog, err = tac.Generate(syncop.Insert(a, syncop.Options{})); err != nil {
				return c, fmt.Errorf("perfect: %s: %w", s.Profile.Name, err)
			}
		}
		c.DLXLines += len(prog.Instrs)
	}
	return c, nil
}

// Doacross returns the suite's DOACROSS loops (the ones the experiments
// schedule and simulate).
func (s *Suite) Doacross() []Loop {
	var out []Loop
	for _, l := range s.Loops {
		if l.Template != Doall {
			out = append(out, l)
		}
	}
	return out
}
