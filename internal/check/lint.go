package check

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"doacross/internal/dep"
	"doacross/internal/diag"
	"doacross/internal/lang"
	"doacross/internal/syncop"
)

// LintStage is the diagnostic stage name of the source linter.
const LintStage = "lint"

// lintOp is the linter's neutral view of one synchronization operation,
// shared between explicitly written Send_Signal/Wait_Signal statements
// (lang.SyncOp) and compiler-inserted ones (syncop.Op).
type lintOp struct {
	wait   bool
	signal string
	dist   int // wait distance d; 0 for sends
	seq    int // textual order among sync ops and statements
	prev   int // statement index textually before the op, -1 if none
	next   int // statement index textually after the op, len(Body) if none
	src    int // index of the signal's source statement, -1: unknown label
	pos    diag.Pos
	stmt   string // label of the anchor statement, "" past the last one
}

// Lint checks the explicitly written synchronization of a source loop and
// returns positioned findings (stage "lint"): waits that can never be
// satisfied (static deadlock), dead sends, non-positive or mismatched
// distances, self-synchronization, and redundant waits subsumed by the
// transitive closure of the remaining synchronization. The search for a
// subsuming chain visits at most 4,096 states per wait, and the searches
// of one call examine at most 2^24 (state, wait) pairs between them, so
// linting costs the same whatever the distances and the number of waits;
// a wait whose search would exceed either bound is not reported redundant.
// A loop without explicit sync ops has nothing to lint and yields nil.
func Lint(loop *lang.Loop) diag.List {
	if loop == nil || len(loop.Syncs) == 0 {
		return nil
	}
	var ops []lintOp
	seq := 0
	k := 0 // statements emitted so far
	for _, o := range loop.Syncs {
		// Syncs are recorded in textual order with nondecreasing anchors.
		for k < o.At {
			k++
			seq++
		}
		op := lintOp{
			wait: o.Wait, signal: o.Signal, dist: o.Dist,
			seq: seq, prev: k - 1, next: k,
			pos: o.Pos(),
		}
		if k < len(loop.Body) {
			op.stmt = loop.Body[k].Label
		}
		ops = append(ops, op)
		seq++
	}
	return lintOps(loop, dep.Analyze(loop), ops)
}

// LintSync checks compiler-inserted synchronization. The same rules apply;
// in particular it surfaces waits made redundant by transitivity, which
// syncop.Insert does not eliminate.
func LintSync(sl *syncop.Loop) diag.List {
	if sl == nil {
		return nil
	}
	return lintOps(sl.Base, sl.Analysis, syncOps(sl))
}

// syncOps lists the compiler-inserted synchronization of sl as lint ops.
func syncOps(sl *syncop.Loop) []lintOp {
	sends, waits := sl.NumOps()
	ops := make([]lintOp, 0, sends+waits)
	for seq, it := range sl.Items() {
		if it.Op == nil {
			continue
		}
		op := lintOp{
			wait:   it.Op.Kind == syncop.Wait,
			signal: it.Op.Src,
			dist:   it.Op.Distance,
			seq:    seq,
			pos:    sl.Base.Body[it.StmtIndex].Pos(),
			stmt:   sl.Base.Body[it.StmtIndex].Label,
		}
		if op.wait {
			op.prev, op.next = it.StmtIndex-1, it.StmtIndex
		} else {
			op.prev, op.next = it.StmtIndex, it.StmtIndex+1
		}
		ops = append(ops, op)
	}
	return ops
}

// lintOps runs every lint rule over the neutral op list.
func lintOps(base *lang.Loop, a *dep.Analysis, ops []lintOp) diag.List {
	var out diag.List
	warn := func(op lintOp, sev diag.Severity, msg string) {
		out = append(out, &diag.Diagnostic{Stage: LintStage, Severity: sev, Pos: op.pos, Stmt: op.stmt, Msg: msg})
	}
	report := func(op lintOp, err bool, format string, args ...any) {
		sev := diag.Warning
		if err {
			sev = diag.Error
		}
		warn(op, sev, fmt.Sprintf(format, args...))
	}
	render := func(op lintOp) string {
		var buf [64]byte
		return string(appendOp(buf[:0], op, base.Var))
	}

	// Resolve every op's signal once. A signal names its source statement,
	// so the per-signal facts are kept per statement: firstSend[s] is one
	// past the seq of the first send of statement s's signal (0: never
	// sent).
	firstSend := make([]int, len(base.Body))
	awaited := make([]bool, len(base.Body))
	for i := range ops {
		op := &ops[i]
		op.src = base.StmtIndex(op.signal)
		switch {
		case op.src < 0:
		case op.wait:
			awaited[op.src] = true
		case firstSend[op.src] == 0:
			firstSend[op.src] = op.seq + 1
		}
	}
	var deps stmtPairs // carried dependences by (source, sink) statement
	if a != nil {
		deps = make(stmtPairs, 0, len(a.Deps))
		for i, d := range a.Deps {
			if d.Distance > 0 {
				deps = append(deps, stmtPair{int32(d.Src.Stmt), int32(d.Snk.Stmt), int32(i)})
			}
		}
		deps.sort()
	}

	for _, op := range ops {
		src := op.src
		if src < 0 {
			report(op, true, "%s references unknown statement label %q", render(op), op.signal)
			continue
		}
		if op.wait {
			if firstSend[src] == 0 {
				report(op, true, "static deadlock: %s has no matching Send_Signal(%s)", render(op), op.signal)
				continue
			}
			if op.dist < 0 {
				report(op, true, "%s waits on a future iteration (negative distance %d)", render(op), op.dist)
				continue
			}
			if op.dist == 0 {
				if firstSend[src]-1 > op.seq {
					if src == op.next {
						report(op, true, "self-synchronization deadlock: %s waits for its own statement's signal within the same iteration", render(op))
					} else {
						report(op, true, "static deadlock: %s waits within the iteration for Send_Signal(%s), which executes after it", render(op), op.signal)
					}
				} else {
					report(op, false, "%s is always satisfied by the preceding Send_Signal(%s); redundant", render(op), op.signal)
				}
				continue
			}
			// Distance audit against the dependence analysis: the wait
			// guards its anchor statement against the signal's source.
			if a != nil && op.next < len(base.Body) {
				found := deps.find(src, op.next)
				match := false
				for _, e := range found {
					match = match || a.Deps[e.at].Distance == op.dist
				}
				if len(found) == 0 {
					report(op, false, "no loop-carried dependence from %s to %s requires %s", op.signal, base.Body[op.next].Label, render(op))
				} else if !match {
					dists := make([]int, len(found))
					for i, e := range found {
						dists[i] = a.Deps[e.at].Distance
					}
					report(op, false, "%s distance %d matches no analyzed dependence %s->%s (analysis finds distances %v)",
						render(op), op.dist, op.signal, base.Body[op.next].Label, dists)
				}
			}
		} else {
			if op.prev < src {
				report(op, true, "%s precedes its source statement %s (synchronization condition 1)", render(op), op.signal)
			}
			if !awaited[src] {
				report(op, false, "signal %s is sent but never awaited (dead synchronization)", op.signal)
			}
			if firstSend[src]-1 != op.seq {
				report(op, false, "duplicate %s", render(op))
			}
		}
	}

	lintRedundantWaits(ops, base.Var, func(op lintOp, msg string) { warn(op, diag.Warning, msg) })
	out = append(out, lintDepPrecision(base, a, ops, render)...)
	return out
}

// appendOp appends op in the paper's notation to b, ivar naming the loop's
// induction variable: Send_Signal(S), Wait_Signal(S, I-d).
func appendOp(b []byte, op lintOp, ivar string) []byte {
	if !op.wait {
		b = append(b, "Send_Signal("...)
		b = append(b, op.signal...)
		return append(b, ')')
	}
	b = append(b, "Wait_Signal("...)
	b = append(b, op.signal...)
	b = append(b, ", "...)
	b = append(b, ivar...)
	switch {
	case op.dist < 0:
		b = append(b, '+')
		b = strconv.AppendInt(b, -int64(op.dist), 10)
	case op.dist > 0:
		b = append(b, '-')
		b = strconv.AppendInt(b, int64(op.dist), 10)
	}
	return append(b, ')')
}

// stmtPair keys entry at of a dependence or pair list by a statement pair.
type stmtPair struct{ a, b, at int32 }

// stmtPairs is a list of keyed entries sorted by (a, b, at), so the entries
// of one statement pair are found by binary search, in list order.
type stmtPairs []stmtPair

func (x stmtPairs) sort() {
	slices.SortFunc(x, func(p, q stmtPair) int {
		if c := cmp.Compare(p.a, q.a); c != 0 {
			return c
		}
		if c := cmp.Compare(p.b, q.b); c != 0 {
			return c
		}
		return cmp.Compare(p.at, q.at)
	})
}

// find returns the entries keyed (a, b).
func (x stmtPairs) find(a, b int) stmtPairs {
	lo := sort.Search(len(x), func(i int) bool {
		return int(x[i].a) > a || int(x[i].a) == a && int(x[i].b) >= b
	})
	hi := lo
	for hi < len(x) && int(x[hi].a) == a && int(x[hi].b) == b {
		hi++
	}
	return x[lo:hi]
}

// hotspotThreshold is how many conservative pair decisions one statement must
// be party to before the linter flags it as a hotspot worth rewriting.
const hotspotThreshold = 2

// lintDepPrecision surfaces the precise dependence analysis through the
// linter: waits whose guarded statement pair is proven independent on every
// subscript pair (the synchronization arc is provably redundant, with the
// independence certificate named), and statements concentrating conservative
// pair decisions (hotspots where the analysis had to assume a dependence).
func lintDepPrecision(base *lang.Loop, a *dep.Analysis, ops []lintOp, render func(lintOp) string) diag.List {
	if a == nil || len(a.Pairs) == 0 {
		return nil
	}
	var out diag.List
	// Pair decisions by unordered statement pair.
	pairs := make(stmtPairs, len(a.Pairs))
	for i := range a.Pairs {
		x, y := a.Pairs[i].A.Stmt, a.Pairs[i].B.Stmt
		pairs[i] = stmtPair{int32(min(x, y)), int32(max(x, y)), int32(i)}
	}
	pairs.sort()
	for _, op := range ops {
		if !op.wait || op.dist <= 0 || op.next >= len(base.Body) {
			continue
		}
		src := op.src
		if src < 0 || src == op.next {
			continue
		}
		found := pairs.find(min(src, op.next), max(src, op.next))
		indep := 0
		var rule dep.Rule
		for _, e := range found {
			if p := &a.Pairs[e.at]; p.Verdict == dep.VerdictIndependent {
				indep++
				rule = p.Evidence.Rule
			}
		}
		if len(found) > 0 && indep == len(found) {
			d := diag.Warningf(LintStage, op.pos,
				"provably-redundant synchronization arc: %s guards %s against %s, but every subscript pair between them is proven independent (%s)",
				render(op), base.Body[op.next].Label, op.signal, rule)
			if op.stmt != "" {
				d = d.WithStmt(op.stmt)
			}
			out = append(out, d)
		}
	}
	// Conservative hotspots: statements party to several pair decisions the
	// analysis could not refine. Counted once per pair even when both
	// references sit in the same statement.
	counts := make([]int, len(base.Body))
	reasons := make([]uint32, len(base.Body)) // bit r: some pair's rule is r
	note := func(stmt int, r dep.Rule) {
		if stmt < 0 || stmt >= len(base.Body) {
			return
		}
		counts[stmt]++
		reasons[stmt] |= 1 << r
	}
	for i := range a.Pairs {
		p := &a.Pairs[i]
		if p.Verdict != dep.VerdictConservative || p.Evidence.Rule == dep.RuleScalar {
			continue
		}
		note(p.A.Stmt, p.Evidence.Rule)
		if p.B.Stmt != p.A.Stmt {
			note(p.B.Stmt, p.Evidence.Rule)
		}
	}
	for s, n := range counts {
		if n < hotspotThreshold {
			continue
		}
		var rules []string
		for r := dep.Rule(0); int(r) < 16; r++ {
			if reasons[s]&(1<<r) != 0 {
				rules = append(rules, r.String())
			}
		}
		st := base.Body[s]
		out = append(out, diag.Warningf(LintStage, st.Pos(),
			"conservative-dependence hotspot: %s is party to %d conservative dependence pairs (%s); the analyzer had to assume distance-1 webs for each",
			st.Label, n, strings.Join(rules, ", ")).WithStmt(st.Label))
	}
	return out
}

// The bounds of lintRedundantWaits: one wait's search visits at most
// redundantStates states, which bounds its memory, and the searches of one
// call examine at most redundantWork (state, wait) pairs between them,
// which bounds its time: every visited state is examined against every
// wait.
const (
	redundantStates = 1 << 12
	redundantWork   = 1 << 24
)

// lintRedundantWaits flags waits subsumed by the transitive closure of the
// other waits. A wait W for signal src(W) with distance d guarantees that
// statement src(W) of iteration i-d completed before W's anchor statement
// of iteration i starts. A chain of other waits V1..Vm re-establishes that
// guarantee when src(V1) >= src(W), src(V(k+1)) >= anchor(Vk), anchor(Vm)
// <= anchor(W), and the distances sum to exactly d — the exact-sum
// requirement matters because iterations of a DOACROSS loop are otherwise
// unordered. Waits already flagged redundant are excluded from chains, so
// of two identical waits only the later is flagged.
//
// Each wait runs one breadth-first search over states (anchor, distance
// used so far), which reports the shortest chain, first found in wait
// order. A search may visit at most redundantStates states, and once the
// call's searches have examined redundantWork (state, wait) pairs the
// remaining searches stop, so the cost grows neither with the distances
// nor with the number of waits: a wait whose search is cut short gets no
// finding, even if a chain exists.
func lintRedundantWaits(ops []lintOp, ivar string, warn func(op lintOp, msg string)) {
	var search waitSearch
	waits := search.load(ops)
	if len(waits) < 2 {
		return
	}
	var chain []int32 // the chain's waits, last first
	var text []byte
	for wi, w := range waits {
		if last := search.run(wi); last >= 0 {
			chain = chain[:0]
			for k := last; k >= 0; k = int(search.states[k].parent) {
				chain = append(chain, search.states[k].via)
			}
			text = appendOp(text[:0], ops[w], ivar)
			text = append(text, " is redundant: subsumed by transitive synchronization through ["...)
			for i := len(chain) - 1; i >= 0; i-- {
				text = appendOp(text, ops[waits[chain[i]]], ivar)
				if i > 0 {
					text = append(text, ' ')
				}
			}
			warn(ops[w], string(append(text, ']')))
			search.waits[wi].redundant = true
		}
	}
}

// waitSearch is the working state of lintRedundantWaits, reused across its
// searches: the eligible waits, the visited states, which are also the
// breadth-first queue, an open-addressing set of their keys, and the
// examinations left to the searches.
type waitSearch struct {
	waits  []chainWait
	states []searchState
	slots  []int32 // state index + 1 by key hash, 0: empty
	work   int
}

// load takes the waits eligible to form chains — positive distance, known
// signal — and returns their indexes in ops.
func (ws *waitSearch) load(ops []lintOp) []int {
	ws.work = redundantWork
	waits := make([]int, 0, len(ops))
	ws.waits = make([]chainWait, 0, len(ops))
	for i, op := range ops {
		if op.wait && op.dist > 0 && op.src >= 0 {
			waits = append(waits, i)
			ws.waits = append(ws.waits, chainWait{src: int32(op.src), next: int32(op.next), dist: op.dist})
		}
	}
	return waits
}

// chainWait is an eligible wait as the search sees it.
type chainWait struct {
	src, next int32
	dist      int
	redundant bool // flagged already: no longer part of any chain
}

// searchState is one visited (anchor, used) state, reached through the
// wait waits[via] from the state at index parent (-1: a chain's first
// wait). It is complete when used is the searched wait's distance and
// anchor is at or before its anchor.
type searchState struct {
	used                int
	anchor, parent, via int32
}

// run searches for a chain subsuming waits[wi] and returns the index of
// its last state, or -1 when there is none or a bound was reached. The
// reported state is the first complete one in breadth-first order; it is
// recognized when it is enqueued, since every state enqueued before it is
// dequeued, and found incomplete, first.
func (ws *waitSearch) run(wi int) int {
	// Empty the key set of the previous search. Removing linear-probing
	// keys in reverse insertion order restores each earlier table exactly.
	for i := len(ws.states) - 1; i >= 0; i-- {
		ws.slots[ws.find(ws.states[i].anchor, ws.states[i].used)] = 0
	}
	ws.states = ws.states[:0]
	w := ws.waits[wi]
	last := -1
	// expand enqueues the unvisited states one more wait reaches from
	// (anchor, used), in wait order, and reports false once the chain is
	// complete or a bound is reached.
	expand := func(anchor int32, used int, parent int32) bool {
		for vi := range ws.waits {
			if ws.work == 0 {
				return false
			}
			ws.work--
			v := &ws.waits[vi]
			if v.src < anchor || used+v.dist > w.dist || v.redundant || vi == wi {
				continue
			}
			st := searchState{used + v.dist, v.next, parent, int32(vi)}
			if len(ws.slots) < 2*(len(ws.states)+1) {
				ws.grow()
			}
			k := ws.find(st.anchor, st.used)
			if ws.slots[k] != 0 {
				continue
			}
			if len(ws.states) == redundantStates {
				return false
			}
			ws.states = append(ws.states, st)
			ws.slots[k] = int32(len(ws.states))
			if st.used == w.dist && st.anchor <= w.next {
				last = len(ws.states) - 1
				return false
			}
		}
		return true
	}
	if expand(w.src, 0, -1) {
		for head := 0; head < len(ws.states); head++ {
			if !expand(ws.states[head].anchor, ws.states[head].used, int32(head)) {
				break
			}
		}
	}
	return last
}

// find returns the slot holding (anchor, used), or the empty slot where it
// belongs.
func (ws *waitSearch) find(anchor int32, used int) int {
	mask := len(ws.slots) - 1
	k := int(uint32(anchor)*0x9E3779B1^uint32(used)*0x85EBCA77) & mask
	for {
		s := ws.slots[k]
		if s == 0 || ws.states[s-1].anchor == anchor && ws.states[s-1].used == used {
			return k
		}
		k = (k + 1) & mask
	}
}

// grow doubles the key set and reinserts the visited states.
func (ws *waitSearch) grow() {
	ws.slots = make([]int32, max(64, 2*len(ws.slots)))
	for i, st := range ws.states {
		ws.slots[ws.find(st.anchor, st.used)] = int32(i + 1)
	}
}
