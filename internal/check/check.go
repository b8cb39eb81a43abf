// Package check is the static verification layer: a translation validator
// for schedules and a synchronization linter for DOACROSS sources.
//
// The verifier follows the translation-validation discipline: instead of
// trusting the dependence graph the schedulers consumed (internal/dfg), it
// re-derives its own dependence edges directly from the three-address code
// and the dependence analysis, and then checks a core.Schedule against
// them — intra-iteration data dependences with latencies, the paper's two
// synchronization conditions (a Send never precedes its source store, a
// Wait never follows its sink), issue-width and function-unit feasibility,
// cross-iteration deadlock freedom over the wait-for graph induced by the
// synchronization arcs and their distances, and agreement of the LBD/LFD
// classification the cost model is built on. A scheduler bug that slips a
// constraint therefore cannot also hide the evidence: the verifier would
// have to share the bug, and it shares no scheduling code.
//
// The edges depend only on the compiled program, so they are derived once
// per program: a Verifier holds one program's edges and checks any number
// of its schedules (every machine, every scheduler) against them. Verify is
// the one-shot form, deriving the edges for a single schedule.
package check

import (
	"cmp"
	"fmt"
	"slices"

	"doacross/internal/core"
	"doacross/internal/dep"
	"doacross/internal/diag"
	"doacross/internal/dlx"
	"doacross/internal/model"
	"doacross/internal/tac"
)

// Stage is the diagnostic stage name of the verifier.
const Stage = "check"

// EdgeKind classifies an independently derived dependence edge.
type EdgeKind int

// Edge kinds, mirroring the constraint families the schedulers must honor.
const (
	// EdgeData is a register def-use edge.
	EdgeData EdgeKind = iota
	// EdgeMem is a loop-independent (distance-0) memory dependence edge.
	EdgeMem
	// EdgeSrcToSend is synchronization condition 1: source store → send.
	EdgeSrcToSend
	// EdgeWaitToSnk is synchronization condition 2: wait → sink access.
	EdgeWaitToSnk
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeData:
		return "data"
	case EdgeMem:
		return "mem"
	case EdgeSrcToSend:
		return "src->send"
	case EdgeWaitToSnk:
		return "wait->snk"
	}
	return fmt.Sprintf("EdgeKind(%d)", int(k))
}

// Edge is one derived dependence edge between instruction indices: To may
// not issue before From's result latency has elapsed.
type Edge struct {
	From, To int
	Kind     EdgeKind
}

// Edges re-derives the dependence edges of a compiled program from first
// principles: register def-use chains from the instruction operands,
// distance-0 memory dependences from the dependence analysis attached to
// the program's synchronized loop, and the two synchronization-condition
// edges for every synchronized dependence. It deliberately does not read
// dfg.Graph.Arcs; the result is the independent ground truth schedules are
// verified against (and internal/dfg is audited against, in the verify
// pass).
//
// Edges are listed without duplicates in derivation order: register edges
// by consumer, then memory edges, then synchronization-condition edges. The
// derivation runs over dense tables: temps are numbered 1..NumTemps, so a
// temp outside that range is an error, and duplicates can only arise among
// one instruction's operands or among the memory and synchronization
// edges, which are deduplicated by one sort.
func Edges(p *tac.Program) ([]Edge, error) {
	if p == nil || p.Sync == nil || p.Sync.Analysis == nil {
		return nil, fmt.Errorf("check: program carries no dependence analysis")
	}
	if p.NumTemps < 0 {
		return nil, fmt.Errorf("check: negative temp count %d", p.NumTemps)
	}

	// Register def-use edges. Temps are single-assignment in this IR.
	defOf := make([]int, p.NumTemps+1) // temp -> defining instruction, -1: none
	for t := range defOf {
		defOf[t] = -1
	}
	var buf [3]int
	uses := 0
	for i := range p.Instrs {
		in := &p.Instrs[i]
		uses += len(in.AppendUses(buf[:0]))
		if in.Dst == 0 {
			continue
		}
		if in.Dst < 0 || int(in.Dst) > p.NumTemps {
			return nil, fmt.Errorf("check: instr %d defines temp t%d outside t1..t%d", i+1, in.Dst, p.NumTemps)
		}
		if prev := defOf[in.Dst]; prev >= 0 {
			return nil, fmt.Errorf("check: temp t%d defined twice (instrs %d and %d)", in.Dst, prev+1, i+1)
		}
		defOf[in.Dst] = i
	}
	a := p.Sync.Analysis
	out := make([]Edge, 0, uses+len(a.Deps)+2*len(p.Sync.Synced))
	for i := range p.Instrs {
		first := len(out)
		for _, t := range p.Instrs[i].AppendUses(buf[:0]) {
			if t < 0 || t > p.NumTemps {
				return nil, fmt.Errorf("check: instr %d uses temp t%d outside t1..t%d", i+1, t, p.NumTemps)
			}
			d := defOf[t]
			if d < 0 {
				return nil, fmt.Errorf("check: instr %d uses undefined temp t%d", i+1, t)
			}
			if d >= i {
				return nil, fmt.Errorf("check: instr %d uses temp t%d defined later (instr %d)", i+1, t, d+1)
			}
			out = appendEdge(out, first, Edge{From: d, To: i, Kind: EdgeData})
		}
	}

	// Distance-0 memory dependence edges from the analysis.
	mem := len(out)
	for _, d := range a.Deps {
		if d.Distance != 0 {
			continue
		}
		src, ok1 := refInstr(p, d.Src)
		snk, ok2 := refInstr(p, d.Snk)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("check: dependence %v has unmapped reference", d)
		}
		out = append(out, Edge{From: src, To: snk, Kind: EdgeMem})
	}

	// Synchronization-condition edges for every synchronized dependence.
	for k := range p.Sync.Synced {
		d := p.Sync.SyncedDep(k)
		if d.Src.Stmt < 0 || d.Src.Stmt >= len(p.Sync.Base.Body) {
			return nil, fmt.Errorf("check: synchronized dependence %v has no source statement", *d)
		}
		label := p.Sync.Base.Body[d.Src.Stmt].Label
		send := p.SendFor(label)
		if send < 0 {
			return nil, fmt.Errorf("check: missing send for signal %s", label)
		}
		src, ok := refInstr(p, d.Src)
		if !ok {
			return nil, fmt.Errorf("check: dependence %v source unmapped", *d)
		}
		out = append(out, Edge{From: src, To: send, Kind: EdgeSrcToSend})
		wi := p.WaitFor(d.Snk.Stmt, label, d.Distance)
		if wi < 0 {
			return nil, fmt.Errorf("check: missing wait for %v", *d)
		}
		snk, ok := refInstr(p, d.Snk)
		if !ok {
			return nil, fmt.Errorf("check: dependence %v sink unmapped", *d)
		}
		out = append(out, Edge{From: wi, To: snk, Kind: EdgeWaitToSnk})
	}
	return dedupEdges(out, mem), nil
}

// appendEdge appends e to out unless it is already among out[from:].
func appendEdge(out []Edge, from int, e Edge) []Edge {
	for _, x := range out[from:] {
		if x == e {
			return out
		}
	}
	return append(out, e)
}

// dedupEdges drops from out[from:] every self-edge and every edge equal to
// an earlier one, keeping first occurrences in order. A self-edge cannot
// constrain a schedule (the builders skip them the same way: a reference
// pair mapping to one instruction orders itself). The memory and
// synchronization edges number up to two per synchronized dependence, so
// instead of scanning the kept ones per append it sorts their positions by
// (edge, position): each run of equal edges keeps its first position.
func dedupEdges(out []Edge, from int) []Edge {
	tail := out[from:]
	pos := make([]int32, len(tail))
	for i := range pos {
		pos[i] = int32(i)
	}
	slices.SortFunc(pos, func(a, b int32) int {
		x, y := tail[a], tail[b]
		if c := cmp.Compare(x.From, y.From); c != 0 {
			return c
		}
		if c := cmp.Compare(x.To, y.To); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Kind, y.Kind); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for k := len(pos) - 1; k > 0; k-- {
		if tail[pos[k]] == tail[pos[k-1]] {
			tail[pos[k]].From = -1 // a duplicate; instruction indexes are >= 0
		}
	}
	k := from
	for _, e := range tail {
		if e.From >= 0 && e.From != e.To {
			out[k] = e
			k++
		}
	}
	return out[:k]
}

// refInstr maps a dependence reference to the index of the instruction
// that performs it.
func refInstr(p *tac.Program, r dep.Ref) (int, bool) {
	var v int32
	var ok bool
	switch {
	case r.Array != nil && r.Merge:
		v, ok = p.MergeLoad[r.Array]
	case r.Array != nil:
		v, ok = p.ArrayInstr[r.Array]
	default:
		v, ok = p.ScalarInstr[tac.ScalarKey{Stmt: r.Stmt, Name: r.ScalarName, Write: r.Write}]
	}
	return int(v), ok
}

// Err reduces a diagnostic list to its first error, or nil. It is the
// yes/no form of Verify for callers that gate on acceptance.
func Err(l diag.List) error {
	if errs := l.Errors(); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// Verifier verifies schedules of one compiled program. It derives the
// program's dependence edges once, at construction, so every schedule of
// the program (each machine, each scheduler) is checked without deriving
// them again. A Verifier is only read after construction and is safe for
// concurrent use.
type Verifier struct {
	prog  *tac.Program
	edges []Edge
	err   error // the derivation error, reported by every Verify
}

// NewVerifier derives the edges of p for verifying its schedules. A
// program the edges cannot be derived from still yields a Verifier: its
// Verify reports the derivation error exactly as the one-shot Verify does.
func NewVerifier(p *tac.Program) *Verifier {
	v := &Verifier{prog: p}
	v.edges, v.err = Edges(p)
	return v
}

// Verify statically verifies a schedule against independently derived
// dependence edges. It returns positioned diagnostics (stage "check"); an
// empty Errors() set means the schedule is proven to respect every derived
// intra-iteration dependence with latencies, both synchronization
// conditions, the machine's issue width and function-unit capacities, to
// be free of cross-iteration deadlock, and to agree with the schedule's
// own LBD/LFD accounting. Verify never panics, whatever the schedule's
// shape — it is safe on adversarially mutated inputs.
//
// Verify is the one-shot form of NewVerifier(s.Prog).Verify(s): it derives
// the edges for this call alone.
func Verify(s *core.Schedule) diag.List {
	var p *tac.Program
	if s != nil {
		p = s.Prog
	}
	return NewVerifier(p).Verify(s)
}

// Verify checks s exactly as the package-level Verify does, against the
// edges derived at construction. A schedule of another program is never
// checked against this program's edges: it falls back to a full one-shot
// verification.
func (vr *Verifier) Verify(s *core.Schedule) diag.List {
	if s != nil && s.Prog != vr.prog {
		return Verify(s)
	}
	var out diag.List
	fail := func(pos diag.Pos, stmt string, format string, args ...any) {
		d := diag.Errorf(Stage, pos, format, args...)
		if stmt != "" {
			d = d.WithStmt(stmt)
		}
		out = append(out, d)
	}
	if s == nil || s.Prog == nil {
		fail(diag.Pos{}, "", "no schedule to verify")
		return out
	}
	if err := s.Cfg.Validate(); err != nil {
		fail(diag.Pos{}, "", "unusable machine configuration: %v", err)
		return out
	}
	n := len(s.Prog.Instrs)
	pos := func(v int) (diag.Pos, string) { return stmtPos(s.Prog, &s.Prog.Instrs[v]) }

	// Shape: every instruction scheduled exactly once, rows and cycles in
	// agreement, issue width respected. Everything after this section may
	// index by cycle, so a malformed shape returns early.
	if len(s.Cycle) != n {
		fail(diag.Pos{}, "", "schedule covers %d of %d instructions", len(s.Cycle), n)
		return out
	}
	rp := core.GetTable(n)
	defer core.PutTable(rp)
	rowPos := *rp // issue order within the row, -1: not yet seen
	for v := range rowPos {
		rowPos[v] = -1
	}
	shapeOK := true
	for c, row := range s.Rows {
		if len(row) > s.Cfg.Issue {
			fail(diag.Pos{}, "", "cycle %d issues %d instructions, width is %d", c, len(row), s.Cfg.Issue)
			shapeOK = false
		}
		for k, v := range row {
			if v < 0 || v >= n {
				fail(diag.Pos{}, "", "cycle %d issues unknown instruction index %d", c, v)
				shapeOK = false
				continue
			}
			if rowPos[v] >= 0 {
				p, st := pos(v)
				fail(p, st, "instruction %d scheduled twice", s.Prog.Instrs[v].ID)
				shapeOK = false
				continue
			}
			rowPos[v] = k
			if s.Cycle[v] != c {
				p, st := pos(v)
				fail(p, st, "instruction %d: cycle %d disagrees with row %d", s.Prog.Instrs[v].ID, s.Cycle[v], c)
				shapeOK = false
			}
		}
	}
	for v := 0; v < n; v++ {
		if rowPos[v] < 0 {
			p, st := pos(v)
			fail(p, st, "instruction %d (%s) never scheduled", s.Prog.Instrs[v].ID, s.Prog.Format(&s.Prog.Instrs[v]))
			shapeOK = false
		}
	}
	if !shapeOK {
		return out
	}

	lat := func(v int) int { return s.Cfg.Latency[s.Prog.Instrs[v].Class()] }

	// Derived dependence edges with latencies. Synchronization-condition
	// violations get their own message so condition 1 and 2 findings are
	// recognizable.
	if vr.err != nil {
		fail(diag.Pos{}, "", "%v", vr.err)
		return out
	}
	for _, e := range vr.edges {
		if s.Cycle[e.To] >= s.Cycle[e.From]+lat(e.From) {
			continue
		}
		p, st := pos(e.To)
		from, to := &s.Prog.Instrs[e.From], &s.Prog.Instrs[e.To]
		switch e.Kind {
		case EdgeSrcToSend:
			fail(p, st, "synchronization condition 1 violated: %s (instr %d, cycle %d) precedes its source store (instr %d, cycle %d, latency %d)",
				s.Prog.Format(from), from.ID, s.Cycle[e.To], to.ID, s.Cycle[e.From], lat(e.From))
		case EdgeWaitToSnk:
			fail(p, st, "synchronization condition 2 violated: sink %s (instr %d, cycle %d) precedes %s (instr %d, cycle %d)",
				s.Prog.Format(to), to.ID, s.Cycle[e.To], s.Prog.Format(from), from.ID, s.Cycle[e.From])
		default:
			fail(p, st, "%s dependence violated: instr %d (cycle %d, latency %d) -> instr %d (cycle %d)",
				e.Kind, from.ID, s.Cycle[e.From], lat(e.From), to.ID, s.Cycle[e.To])
		}
	}

	// Function-unit occupancy: units are not pipelined, so an instruction
	// holds a unit of its class for its full latency.
	horizon := 0
	for v := 0; v < n; v++ {
		if end := s.Cycle[v] + lat(v); end > horizon {
			horizon = end
		}
	}
	// occupancy[cls*horizon+c] counts the busy units of class cls in cycle c.
	occ := core.GetTable(int(dlx.NumClasses) * horizon)
	defer core.PutTable(occ)
	occupancy := *occ
	for v := 0; v < n; v++ {
		cls := s.Prog.Instrs[v].Class()
		if !dlx.NeedsUnit(cls) {
			continue
		}
		occ := occupancy[int(cls)*horizon : int(cls+1)*horizon]
		for c := s.Cycle[v]; c < s.Cycle[v]+lat(v); c++ {
			occ[c]++
			if occ[c] == s.Cfg.Units[cls]+1 {
				// Report each oversubscribed (class, cycle) once.
				p, st := pos(v)
				fail(p, st, "cycle %d oversubscribes %s units (%d available)", c, cls, s.Cfg.Units[cls])
			}
		}
	}

	out = append(out, verifyDeadlockFree(s, rowPos)...)
	out = append(out, verifyLBDAccounting(s)...)
	return out
}

// verifyDeadlockFree checks cross-iteration deadlock freedom. Every
// iteration runs the same schedule in order; a blocked Wait stalls every
// instruction at a later cycle (or later in the same row). The wait-for
// graph over synchronization instructions therefore has two arc families:
//
//   - wait → its send, weighted by the wait's distance d (iteration i's
//     wait depends on iteration i-d's send), and
//   - x → wait, weight 0, whenever x issues at or after the wait (same
//     iteration's in-order stall).
//
// The schedule deadlocks exactly when this graph has a cycle of total
// weight <= 0: the dependence then fails to recede toward earlier
// iterations and can never bottom out at the loop's first iterations.
//
// Stall arcs strictly descend in schedule order, so every cycle contains a
// wait → send arc, and when every such arc has d >= 1 every cycle weighs at
// least 1. Organic schedules (positive distances) are therefore checked by
// one pass that reports the waits whose signal is never sent; only a wait
// with distance <= 0 whose signal is sent starts the cycle search.
func verifyDeadlockFree(s *core.Schedule, rowPos []int) diag.List {
	var out diag.List
	search := false
	for v := range s.Prog.Instrs {
		in := &s.Prog.Instrs[v]
		if in.Op != tac.Wait {
			continue
		}
		if s.Prog.SendOf(v) >= 0 {
			search = search || in.SigDist <= 0
			continue
		}
		p, st := stmtPos(s.Prog, in)
		d := diag.Errorf(Stage, p, "deadlock: %s waits for a signal that is never sent", s.Prog.Format(in))
		if st != "" {
			d = d.WithStmt(st)
		}
		out = append(out, d)
	}
	if !search {
		return out
	}
	cycle := deadlockCycle(s, rowPos)
	if cycle == nil {
		return out
	}
	names := make([]string, len(cycle))
	for i, v := range cycle {
		names[i] = s.Prog.Format(&s.Prog.Instrs[v])
	}
	p, st := stmtPos(s.Prog, &s.Prog.Instrs[cycle[0]])
	d := diag.Errorf(Stage, p, "cross-iteration deadlock: wait-for cycle with non-positive total distance through %v", names)
	if st != "" {
		d = d.WithStmt(st)
	}
	return append(out, d)
}

// stmtPos returns the position and label of the statement an instruction
// was generated from, or zero values when it has none.
func stmtPos(p *tac.Program, in *tac.Instr) (diag.Pos, string) {
	if p.Sync != nil && in.Stmt >= 0 && int(in.Stmt) < len(p.Sync.Base.Body) {
		st := p.Sync.Base.Body[in.Stmt]
		return st.Pos(), st.Label
	}
	return diag.Pos{}, ""
}

// deadlockCycle searches the wait-for graph of verifyDeadlockFree for a
// cycle of total weight <= 0 and returns its instructions, each preceded
// in the list by its successor on the cycle, or nil when there is none.
//
// It is Bellman-Ford from an implicit all-zero source over weights scaled
// by K = (number of sync instructions) + 1 less one per arc, so a cycle of
// total weight <= 0, and only such a cycle, is strictly negative (a simple
// cycle has fewer than K arcs). The stall arcs are not materialized: those
// into a wait all come from later-issued instructions and weigh -1 scaled,
// so they relax as one running minimum over the instructions in reverse
// schedule order, and a pass costs O(syncs).
func deadlockCycle(s *core.Schedule, rowPos []int) []int {
	var syncs []int // sync instructions in schedule order
	for v := range s.Prog.Instrs {
		if s.Prog.Instrs[v].IsSync() {
			syncs = append(syncs, v)
		}
	}
	slices.SortFunc(syncs, func(a, b int) int {
		if c := cmp.Compare(s.Cycle[a], s.Cycle[b]); c != 0 {
			return c
		}
		return cmp.Compare(rowPos[a], rowPos[b])
	})
	n := len(syncs)
	tab := make([]int, len(s.Prog.Instrs)+3*n)
	at := tab[:len(s.Prog.Instrs)] // instruction -> position in syncs
	to, dist, pred := tab[len(at):len(at)+n], tab[len(at)+n:len(at)+2*n], tab[len(at)+2*n:]
	for i, v := range syncs {
		at[v] = i
	}
	for i, v := range syncs {
		to[i], pred[i] = -1, -1
		if send := s.Prog.SendOf(v); send >= 0 {
			to[i] = at[send] // a wait: its arc to its send
		}
	}
	k := n + 1
	bad := -1
	for pass := 0; pass < n; pass++ {
		changed := -1
		for i, v := range syncs {
			if j := to[i]; j >= 0 {
				if w := dist[i] + int(s.Prog.Instrs[v].SigDist)*k - 1; w < dist[j] {
					dist[j], pred[j], changed = w, i, j
				}
			}
		}
		low := -1 // the later-issued position of least distance
		for i := n - 1; i >= 0; i-- {
			if to[i] >= 0 && low >= 0 && dist[low]-1 < dist[i] {
				dist[i], pred[i], changed = dist[low]-1, low, i
			}
			if low < 0 || dist[i] < dist[low] {
				low = i
			}
		}
		if changed < 0 {
			return nil
		}
		bad = changed
	}
	// A position relaxed in the last pass leads back, through n
	// predecessors, onto a negative cycle.
	for i := 0; i < n; i++ {
		bad = pred[bad]
	}
	cycle := []int{syncs[bad]}
	for v := pred[bad]; v != bad && len(cycle) <= n; v = pred[v] {
		cycle = append(cycle, syncs[v])
	}
	return cycle
}

// verifyLBDAccounting recomputes the LBD/LFD classification of every
// synchronization pair straight from the instruction cycles and cross-
// checks the schedule's own NumLBD/MaxLBDStall — the inputs of the LBD
// loop theorem T = (n/d)(i-j) + l. A divergence means the cost model is
// being fed a misclassified schedule.
func verifyLBDAccounting(s *core.Schedule) diag.List {
	var out diag.List
	lbd := 0
	worst := 0.0
	for v := range s.Prog.Instrs {
		in := &s.Prog.Instrs[v]
		if in.Op != tac.Wait {
			continue
		}
		send := s.Prog.SendOf(v)
		if send < 0 {
			continue // reported by the deadlock check
		}
		span := s.Cycle[send] - s.Cycle[v]
		if span < 0 {
			continue // LFD in the schedule
		}
		lbd++
		if v := float64(span+1) / float64(in.SigDist); v > worst {
			worst = v
		}
	}
	if got := s.NumLBD(); got != lbd {
		out = append(out, diag.Errorf(Stage, diag.Pos{},
			"LBD accounting mismatch: schedule reports %d LBD pairs, recount finds %d", got, lbd))
	}
	if got := s.MaxLBDStall(); got != worst {
		out = append(out, diag.Errorf(Stage, diag.Pos{},
			"LBD stall mismatch: schedule reports %.3f, recount finds %.3f", got, worst))
	}
	return out
}

// VerifyTiming audits the cost model against a simulated execution: the
// analytical Predict bound (the LBD loop theorem applied to the schedule)
// is documented as a lower bound of the simulated parallel time, and no
// execution of n >= 1 iterations can finish before one iteration's
// completion length. total is sim.Timing.Total for the same schedule and
// trip count.
func VerifyTiming(s *core.Schedule, total, n int) diag.List {
	var out diag.List
	if s == nil || n < 1 {
		return nil
	}
	if cl := s.CompletionLength(); total < cl {
		out = append(out, diag.Errorf(Stage, diag.Pos{},
			"timing audit: simulated total %d below one-iteration completion length %d", total, cl))
	}
	if pred := model.Predict(s, n); pred > total {
		out = append(out, diag.Errorf(Stage, diag.Pos{},
			"timing audit: predicted T = %d exceeds simulated total %d at n=%d (Predict must lower-bound the simulation)", pred, total, n))
	}
	return out
}
