// Package dep implements the data-dependence analysis the paper obtains from
// Parafrase: for a single DO loop it finds every flow, anti and output
// dependence between statement pairs, computes loop-carried dependence
// distances for affine subscripts, and classifies each dependence as
// lexically forward (LFD) or lexically backward (LBD).
//
// The analysis is a decision procedure with machine-checkable evidence
// (decide.go, evidence.go): subscripts reduce to affine forms over the
// induction variable and loop-invariant symbols, pairs are solved by exact
// distance computation, GCD tests, Banerjee-style bound separation, and
// Diophantine enumeration over constant iteration ranges. Every proven
// dependence carries a witness iteration pair, every proven independence an
// infeasibility certificate, and the Conservative residue an explicit
// undecidability reason. Options.Baseline reproduces the seed analyzer's
// purely syntactic matching for audit comparison.
//
// Terminology follows the paper (§2):
//
//   - Src / Snk: dependence source and sink statements.
//   - Si bef Sj: Si occurs textually before Sj.
//   - A dependence Si δ Sj is *forward* iff Si bef Sj; otherwise *backward*.
//   - Distance d: the sink iteration reads/writes the element the source
//     touched d iterations earlier. d = 0 is loop-independent.
package dep

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"doacross/internal/diag"
	"doacross/internal/lang"
)

// Kind is the data-dependence class.
type Kind int

// Dependence kinds.
const (
	Flow   Kind = iota // write → read (true dependence)
	Anti               // read → write
	Output             // write → write
)

// String names the dependence kind.
func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Ref identifies one memory reference inside the loop body.
type Ref struct {
	// Stmt is the 0-based statement index.
	Stmt int
	// Write reports whether the reference stores (LHS) or loads (RHS).
	Write bool
	// Array is the referenced array ref node, nil for scalar references.
	// Node identity ties the dependence to the load/store instruction the
	// code generator emits for it.
	Array *lang.ArrayRef
	// ScalarName is set for scalar references.
	ScalarName string
	// Pos is the ordinal of the reference within its statement (guard reads
	// first, then LHS, then RHS references left to right); used only for
	// deterministic ordering.
	Pos int
	// Merge marks the implicit read of a *conditionally* written location:
	// if-conversion lowers `IF (c) A[I] = v` to a load of the old element, a
	// select, and an unconditional store, so the statement reads what it may
	// overwrite. The flag lets the code generator map the reference to that
	// merge load.
	Merge bool
}

// Name returns the variable name referenced.
func (r Ref) Name() string {
	if r.Array != nil {
		return r.Array.Name
	}
	return r.ScalarName
}

// Dependence is one data dependence of the loop.
type Dependence struct {
	Kind Kind
	// Src and Snk are the dependence endpoints. Execution must preserve
	// Src-before-Snk (offset by Distance iterations).
	Src, Snk Ref
	// Distance is the dependence distance in iterations; 0 means
	// loop-independent (within one iteration).
	Distance int
	// Conservative marks dependences assumed (distance 1) because the
	// subscript pair was not analyzable; Evidence.Rule names why.
	Conservative bool
	// Evidence justifies the dependence: the rule that proved it plus a
	// witness iteration pair for exact distances, or the undecidability
	// reason for conservative assumptions.
	Evidence Evidence
}

// Carried reports whether the dependence crosses iterations.
func (d Dependence) Carried() bool { return d.Distance > 0 }

// LexForward reports whether the dependence is an LFD: the source statement
// occurs textually strictly before the sink statement. Per the paper,
// everything else — including same-statement dependences such as reductions —
// is an LBD.
func (d Dependence) LexForward() bool { return d.Src.Stmt < d.Snk.Stmt }

// String renders the dependence for diagnostics, e.g.
// "flow S3->S1 dist 2 (A)".
func (d Dependence) String() string {
	var buf [64]byte
	return string(d.appendTo(buf[:0]))
}

// appendTo appends the String form to b.
func (d Dependence) appendTo(b []byte) []byte {
	b = append(b, d.Kind.String()...)
	b = append(b, " S"...)
	b = strconv.AppendInt(b, int64(d.Src.Stmt+1), 10)
	b = append(b, "->S"...)
	b = strconv.AppendInt(b, int64(d.Snk.Stmt+1), 10)
	b = append(b, " dist "...)
	b = strconv.AppendInt(b, int64(d.Distance), 10)
	b = append(b, " ("...)
	b = append(b, d.Src.Name()...)
	b = append(b, ')')
	if d.Conservative {
		b = append(b, " (conservative)"...)
	}
	return b
}

// Options configures the analysis.
type Options struct {
	// Baseline disables the precise decision procedure and reproduces the
	// seed analyzer's syntactic subscript matching: symbolic terms, coupled
	// subscripts and fixed-element pairs all fall back to conservative
	// distance-1 webs. Used by the precision audit as the comparison point.
	Baseline bool
}

// Analysis holds the dependence analysis result for one loop.
type Analysis struct {
	Loop *lang.Loop
	// Deps lists every dependence, deterministic order.
	Deps []Dependence
	// Pairs records the per-decision provenance: one verdict with evidence
	// for every ordered (write, other) reference pair examined.
	Pairs []PairDecision

	opt     Options
	lo, hi  int  // constant loop bounds when bounded
	bounded bool // both bounds are compile-time integer constants
}

// Analyze computes all dependences of the loop with the precise engine.
func Analyze(loop *lang.Loop) *Analysis { return AnalyzeOpts(loop, Options{}) }

// AnalyzeOpts computes all dependences of the loop under the given options.
func AnalyzeOpts(loop *lang.Loop, opt Options) *Analysis {
	refs := collectRefs(loop)
	a := &Analysis{Loop: loop, opt: opt}
	if lo, ok := lang.ConstInt(loop.Lo); ok {
		if hi, ok := lang.ConstInt(loop.Hi); ok {
			a.lo, a.hi, a.bounded = lo, hi, lo <= hi
		}
	}
	// Group references by variable (scalar and array namespaces are
	// disjoint): a stable sort brings each variable's references together
	// while keeping textual order within the group. The final sortDeps pass
	// makes the output order independent of group order. Single-variable
	// loops are already grouped; the pre-check skips the sort's interface
	// allocation for them.
	grouped := true
	for i := 1; i < len(refs); i++ {
		if refLess(refs[i], refs[i-1]) {
			grouped = false
			break
		}
	}
	if !grouped {
		sort.Stable(refsByVar(refs))
	}
	// Each write pairs with every read and every other write of its
	// variable, and each pair is recorded once. A pair emits from none to
	// several dependences, so they collect in a pooled buffer, which starts
	// at twice the pair count (the most most loops need), and are published
	// at their exact number.
	npairs, w, r := 0, 0, 0
	for i, ref := range refs {
		if i > 0 && refLess(refs[i-1], ref) {
			w, r = 0, 0
		}
		if ref.Write {
			npairs, w = npairs+w+r, w+1
		} else {
			npairs, r = npairs+w, r+1
		}
	}
	buf := depsPool.Get().(*[]Dependence)
	if cap(*buf) < 2*npairs {
		*buf = make([]Dependence, 0, 2*npairs)
	}
	a.Deps = (*buf)[:0]
	a.Pairs = make([]PairDecision, 0, npairs)
	forms := subscriptForms(loop, refs)
	for i := 0; i < len(refs); {
		j := i + 1
		for j < len(refs) && !refLess(refs[i], refs[j]) && !refLess(refs[j], refs[i]) {
			j++
		}
		lo := i
		group := refs[i:j]
		i = j
		for gi := 0; gi < len(group); gi++ {
			for gj := 0; gj < len(group); gj++ {
				w, x := group[gi], group[gj]
				if !w.Write {
					continue
				}
				// Pair each write with every read (flow/anti) and with later
				// writes (output). The write/write case is handled once per
				// unordered pair by requiring gi <= gj.
				if x.Write {
					if gi > gj {
						continue
					}
					a.addWriteWrite(w, x, forms[lo+gi], forms[lo+gj])
				} else {
					a.addWriteRead(w, x, forms[lo+gi], forms[lo+gj])
				}
			}
		}
	}
	sortDeps(a.Deps)
	deps := make([]Dependence, len(a.Deps))
	copy(deps, a.Deps)
	clear(a.Deps)
	*buf = a.Deps[:0]
	depsPool.Put(buf)
	a.Deps = deps
	return a
}

// depsPool holds the buffers AnalyzeOpts collects dependences in, cleared so
// that a pooled buffer keeps no loop alive.
var depsPool = sync.Pool{New: func() any { return new([]Dependence) }}

// subscriptForms reduces every array reference's subscript once, aligned
// with refs. A form whose symbols are written inside the loop body is not
// loop-invariant and is demoted to non-affine.
func subscriptForms(loop *lang.Loop, refs []Ref) []form {
	forms := make([]form, len(refs))
	var written []string
	for _, st := range loop.Body {
		if s, ok := st.LHS.(*lang.Scalar); ok {
			written = append(written, s.Name)
		}
	}
	isWritten := func(name string) bool {
		for _, w := range written {
			if w == name {
				return true
			}
		}
		return false
	}
	for i, r := range refs {
		if r.Array == nil {
			continue
		}
		f, ok := lang.AffineSym(r.Array.Index, loop.Var)
		if ok {
			for _, t := range f.Syms {
				if isWritten(t.Name) {
					ok = false
					break
				}
			}
		}
		forms[i] = form{f: f, ok: ok}
	}
	return forms
}

// refsByVar stable-sorts references into per-variable groups: scalars first,
// then arrays, by name. Only the grouping matters — sortDeps canonicalizes
// the final order.
type refsByVar []Ref

func (s refsByVar) Len() int           { return len(s) }
func (s refsByVar) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s refsByVar) Less(i, j int) bool { return refLess(s[i], s[j]) }

func refLess(a, b Ref) bool {
	as, bs := a.Array == nil, b.Array == nil
	if as != bs {
		return as // scalars first
	}
	return a.Name() < b.Name()
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (a *Analysis) recordPair(w, x Ref, v Verdict, ev Evidence, ndeps int) {
	a.Pairs = append(a.Pairs, PairDecision{A: w, B: x, Verdict: v, Evidence: ev, Deps: ndeps})
}

// webEvidence builds oriented per-dependence evidence for a fixed-location
// (scalar or same-element) web arc.
func (a *Analysis) webEvidence(rule Rule, distance, elem int) Evidence {
	b := a.baseIter()
	return Evidence{Rule: rule, Witness: Witness{SrcIter: b, SnkIter: b + distance, Elem: elem}}
}

// emitWeb emits the exact fixed-location web between a write and a read of
// the same memory location (a scalar, or an array element whose subscript is
// iteration-invariant): within an iteration the textual order decides the
// distance-0 arc, and the location being re-touched every iteration adds the
// carried distance-1 arc in the opposite direction. rule is RuleScalar or
// RuleSameElement; elem is the element index (0 for scalars).
func (a *Analysis) emitWebWriteRead(w, r Ref, rule Rule, elem int) int {
	if w.Stmt < r.Stmt {
		a.Deps = append(a.Deps,
			Dependence{Kind: Flow, Src: w, Snk: r, Distance: 0, Evidence: a.webEvidence(rule, 0, elem)},
			// The read in the *next* iteration still sees this write unless
			// rewritten, but the textually-later same-iteration flow carries
			// the constraint; the carried anti arc closes the web.
			Dependence{Kind: Anti, Src: r, Snk: w, Distance: 1, Evidence: a.webEvidence(rule, 1, elem)})
		return 2
	}
	// Read at or before the write within an iteration: the read sees the
	// previous iteration's write (loop-carried flow), and anti-depends on
	// this iteration's write (including same statement: the RHS read
	// precedes the LHS store — a reduction).
	a.Deps = append(a.Deps,
		Dependence{Kind: Flow, Src: w, Snk: r, Distance: 1, Evidence: a.webEvidence(rule, 1, elem)},
		Dependence{Kind: Anti, Src: r, Snk: w, Distance: 0, Evidence: a.webEvidence(rule, 0, elem)})
	return 2
}

func (a *Analysis) emitWebWriteWrite(w1, w2 Ref, rule Rule, elem int) int {
	src, snk := w1, w2
	if w2.Stmt < w1.Stmt {
		src, snk = w2, w1
	}
	a.Deps = append(a.Deps,
		Dependence{Kind: Output, Src: src, Snk: snk, Distance: 0, Evidence: a.webEvidence(rule, 0, elem)},
		Dependence{Kind: Output, Src: snk, Snk: src, Distance: 1, Evidence: a.webEvidence(rule, 1, elem)})
	return 2
}

// exactEvidence builds the oriented evidence for one exact-distance arc: the
// decision's witness base for that gap, oriented source→sink.
func exactEvidence(rule Rule, aIter, gap, elem int) Evidence {
	src, snk := aIter, aIter+gap
	if gap < 0 {
		src, snk = aIter+gap, aIter
	}
	return Evidence{Rule: rule, Witness: Witness{SrcIter: src, SnkIter: snk, Elem: elem}}
}

func (a *Analysis) addWriteRead(w, r Ref, fw, fr form) {
	if w.Array == nil {
		// Scalar write/read: one fixed location, exact web.
		n := a.emitWebWriteRead(w, r, RuleScalar, 0)
		a.recordPair(w, r, VerdictExact, Evidence{Rule: RuleScalar}, n)
		return
	}
	d := a.decideArray(fw, fr)
	switch d.verdict {
	case VerdictIndependent:
		a.recordPair(w, r, VerdictIndependent, d.ev, 0)
		return
	case VerdictConservative:
		a.Deps = append(a.Deps,
			Dependence{Kind: Flow, Src: w, Snk: r, Distance: 1, Conservative: true, Evidence: d.ev},
			Dependence{Kind: Anti, Src: r, Snk: w, Distance: 1, Conservative: true, Evidence: d.ev})
		n := 2
		if w.Stmt < r.Stmt {
			a.Deps = append(a.Deps, Dependence{Kind: Flow, Src: w, Snk: r, Distance: 0, Conservative: true, Evidence: d.ev})
			n++
		} else if r.Stmt <= w.Stmt {
			a.Deps = append(a.Deps, Dependence{Kind: Anti, Src: r, Snk: w, Distance: 0, Conservative: true, Evidence: d.ev})
			n++
		}
		a.recordPair(w, r, VerdictConservative, d.ev, n)
		return
	}
	if d.web {
		n := a.emitWebWriteRead(w, r, d.ev.Rule, d.ev.Witness.Elem)
		a.recordPair(w, r, VerdictExact, d.ev, n)
		return
	}
	n := 0
	for k := 0; k < d.ngaps; k++ {
		gap := d.gaps[k]
		elem := fw.f.Coef*d.wit[k] + fw.f.Off
		ev := exactEvidence(d.ev.Rule, d.wit[k], gap, elem)
		switch {
		case gap > 0:
			// Read gap iterations after the write: loop-carried flow dependence.
			a.Deps = append(a.Deps, Dependence{Kind: Flow, Src: w, Snk: r, Distance: gap, Evidence: ev})
			n++
		case gap < 0:
			// Read earlier than the write: anti dependence read → write.
			a.Deps = append(a.Deps, Dependence{Kind: Anti, Src: r, Snk: w, Distance: -gap, Evidence: ev})
			n++
		default:
			// Same iteration: textual order decides.
			if w.Stmt < r.Stmt {
				a.Deps = append(a.Deps, Dependence{Kind: Flow, Src: w, Snk: r, Distance: 0, Evidence: ev})
			} else {
				// Read first (including same statement: RHS evaluates before
				// the LHS store).
				a.Deps = append(a.Deps, Dependence{Kind: Anti, Src: r, Snk: w, Distance: 0, Evidence: ev})
			}
			n++
		}
	}
	a.recordPair(w, r, VerdictExact, d.ev, n)
}

func (a *Analysis) addWriteWrite(w1, w2 Ref, f1, f2 form) {
	if w1 == w2 {
		return
	}
	if w1.Array == nil {
		// Scalar output dependences: same location every iteration.
		n := a.emitWebWriteWrite(w1, w2, RuleScalar, 0)
		a.recordPair(w1, w2, VerdictExact, Evidence{Rule: RuleScalar}, n)
		return
	}
	d := a.decideArray(f1, f2)
	switch d.verdict {
	case VerdictIndependent:
		a.recordPair(w1, w2, VerdictIndependent, d.ev, 0)
		return
	case VerdictConservative:
		a.Deps = append(a.Deps,
			Dependence{Kind: Output, Src: w1, Snk: w2, Distance: 1, Conservative: true, Evidence: d.ev},
			Dependence{Kind: Output, Src: w2, Snk: w1, Distance: 1, Conservative: true, Evidence: d.ev})
		n := 2
		if w1.Stmt != w2.Stmt {
			src, snk := w1, w2
			if w2.Stmt < w1.Stmt {
				src, snk = w2, w1
			}
			a.Deps = append(a.Deps, Dependence{Kind: Output, Src: src, Snk: snk, Distance: 0, Conservative: true, Evidence: d.ev})
			n++
		}
		a.recordPair(w1, w2, VerdictConservative, d.ev, n)
		return
	}
	if d.web {
		n := a.emitWebWriteWrite(w1, w2, d.ev.Rule, d.ev.Witness.Elem)
		a.recordPair(w1, w2, VerdictExact, d.ev, n)
		return
	}
	n := 0
	for k := 0; k < d.ngaps; k++ {
		gap := d.gaps[k]
		elem := f1.f.Coef*d.wit[k] + f1.f.Off
		ev := exactEvidence(d.ev.Rule, d.wit[k], gap, elem)
		switch {
		case gap > 0:
			a.Deps = append(a.Deps, Dependence{Kind: Output, Src: w1, Snk: w2, Distance: gap, Evidence: ev})
			n++
		case gap < 0:
			a.Deps = append(a.Deps, Dependence{Kind: Output, Src: w2, Snk: w1, Distance: -gap, Evidence: ev})
			n++
		default:
			if w1.Stmt == w2.Stmt {
				continue
			}
			src, snk := w1, w2
			if w2.Stmt < w1.Stmt {
				src, snk = w2, w1
			}
			a.Deps = append(a.Deps, Dependence{Kind: Output, Src: src, Snk: snk, Distance: 0, Evidence: ev})
			n++
		}
	}
	a.recordPair(w1, w2, VerdictExact, d.ev, n)
}

// collectRefs enumerates all memory references of the loop body in textual
// order. The induction variable is not a memory reference (it lives in a
// register on every processor).
func collectRefs(loop *lang.Loop) []Ref {
	refs := make([]Ref, 0, 4*len(loop.Body))
	// One walk closure shared by every expression of the loop (st/pos/mode
	// are rebound per site), so the traversal allocates nothing per
	// statement.
	si, pos := 0, 0
	scalarsOnly := false
	walk := func(x lang.Expr) {
		switch v := x.(type) {
		case *lang.ArrayRef:
			if !scalarsOnly {
				refs = append(refs, Ref{Stmt: si, Write: false, Array: v, Pos: pos})
				pos++
			}
		case *lang.Scalar:
			if v.Name != loop.Var {
				refs = append(refs, Ref{Stmt: si, Write: false, ScalarName: v.Name, Pos: pos})
				pos++
			}
		}
	}
	for i, st := range loop.Body {
		si, pos = i, 0
		if st.Cond != nil {
			lang.Walk(st.Cond.L, walk)
			lang.Walk(st.Cond.R, walk)
		}
		switch lhs := st.LHS.(type) {
		case *lang.ArrayRef:
			refs = append(refs, Ref{Stmt: si, Write: true, Array: lhs, Pos: pos})
			pos++
			if st.Cond != nil {
				// Conditional write also reads the old element (merge load).
				refs = append(refs, Ref{Stmt: si, Write: false, Array: lhs, Pos: pos, Merge: true})
				pos++
			}
			// Subscript reads of scalars other than the induction variable.
			scalarsOnly = true
			lang.Walk(lhs.Index, walk)
			scalarsOnly = false
		case *lang.Scalar:
			refs = append(refs, Ref{Stmt: si, Write: true, ScalarName: lhs.Name, Pos: pos})
			pos++
			if st.Cond != nil {
				refs = append(refs, Ref{Stmt: si, Write: false, ScalarName: lhs.Name, Pos: pos, Merge: true})
				pos++
			}
		}
		lang.Walk(st.RHS, walk)
	}
	return refs
}

// conservativeReason phrases the undecidability reason of a conservative
// dependence for diagnostics.
func conservativeReason(r Rule) string {
	switch r {
	case RuleNonAffine:
		return "non-affine subscript"
	case RuleSymbolMismatch:
		return "symbolic subscript parts differ"
	case RuleUnboundedStride:
		return "differing strides over symbolic bounds"
	case RuleDistanceSpread:
		return "dependence distances too spread to enumerate"
	}
	return "subscript pair not analyzable"
}

// Diagnostics reports analysis warnings: one per reference pair whose
// subscripts were not analyzable and therefore forced a conservative
// distance-1 dependence. Each warning is positioned at the dependence
// source statement, so `schedcmp -trace` can point at the source line that
// defeats the distance test.
func (a *Analysis) Diagnostics() diag.List {
	// Warnings are deduplicated on the fields their text is built from, so
	// only the kept ones are rendered. The statement label and position
	// follow from the source statement.
	type warnKey struct {
		src, snk, dist int
		kind           Kind
		reason, name   string
	}
	var out diag.List
	var seen map[warnKey]bool
	for _, d := range a.Deps {
		if !d.Conservative {
			continue
		}
		reason := conservativeReason(d.Evidence.Rule)
		k := warnKey{d.Src.Stmt, d.Snk.Stmt, d.Distance, d.Kind, reason, d.Src.Name()}
		if seen[k] {
			continue
		}
		if seen == nil {
			seen = make(map[warnKey]bool)
		}
		seen[k] = true
		var buf [160]byte
		msg := append(buf[:0], "conservative dependence assumed ("...)
		msg = append(msg, reason...)
		msg = append(msg, "): "...)
		st := a.Loop.Body[d.Src.Stmt]
		out = append(out, &diag.Diagnostic{Stage: "dep", Severity: diag.Warning, Pos: st.Pos(),
			Stmt: st.Label, Msg: string(d.appendTo(msg))})
	}
	return out
}

// Carried returns the loop-carried dependences (distance > 0).
func (a *Analysis) Carried() []Dependence {
	n := 0
	for _, d := range a.Deps {
		if d.Carried() {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Dependence, 0, n)
	for _, d := range a.Deps {
		if d.Carried() {
			out = append(out, d)
		}
	}
	return out
}

// CarriedFlow returns loop-carried flow dependences — the ones requiring
// explicit synchronization in a DOACROSS execution where each iteration's
// statements execute in program order on its own processor. (Anti and output
// loop-carried dependences on arrays are also synchronized by callers that
// request full coverage; the paper's benchmarks are dominated by flow LBDs.)
func (a *Analysis) CarriedFlow() []Dependence {
	var out []Dependence
	for _, d := range a.Deps {
		if d.Carried() && d.Kind == Flow {
			out = append(out, d)
		}
	}
	return out
}

// IsDoall reports whether the loop has no loop-carried dependence at all and
// can run fully parallel without synchronization.
func (a *Analysis) IsDoall() bool { return len(a.Carried()) == 0 }

// CountLexical returns how many loop-carried dependences are LFD and LBD —
// the paper's Table 1 statistics.
func (a *Analysis) CountLexical() (lfd, lbd int) {
	for _, d := range a.Carried() {
		if d.LexForward() {
			lfd++
		} else {
			lbd++
		}
	}
	return lfd, lbd
}

func sortDeps(deps []Dependence) {
	sort.Stable(depOrder(deps))
}

// depOrder is the canonical dependence order (a typed sort.Interface rather
// than sort.SliceStable: Analyze is on the compile hot path and the typed
// form avoids the reflection swapper).
type depOrder []Dependence

func (s depOrder) Len() int      { return len(s) }
func (s depOrder) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s depOrder) Less(i, j int) bool {
	a, b := s[i], s[j]
	if a.Src.Stmt != b.Src.Stmt {
		return a.Src.Stmt < b.Src.Stmt
	}
	if a.Snk.Stmt != b.Snk.Stmt {
		return a.Snk.Stmt < b.Snk.Stmt
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	if a.Src.Pos != b.Src.Pos {
		return a.Src.Pos < b.Src.Pos
	}
	return a.Snk.Pos < b.Snk.Pos
}
