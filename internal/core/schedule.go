// Package core implements the paper's contribution (§3.2): instruction
// scheduling for a superscalar-based multiprocessor executing DOACROSS
// loops. It provides
//
//   - List: classic resource-constrained list scheduling (the baseline the
//     paper compares against), which freely hoists Wait_Signals because they
//     have no data predecessors, and
//   - Sync: the new synchronization-aware scheduler, which converts
//     cross-component synchronization pairs to LFD (Sig graphs before, Wat
//     graphs after, all Sigwat graphs) and squeezes unavoidable LBDs to the
//     length of their synchronization path by scheduling SP nodes
//     contiguously, paths in descending (n/d)·|SP| order.
//
// Both schedulers respect the synchronization conditions by construction:
// they schedule over the dfg graph whose src→send and wait→snk arcs encode
// them.
package core

import (
	"fmt"
	"strings"
	"sync"

	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/tac"
)

// Schedule is a cycle-by-cycle issue assignment for one iteration's body.
type Schedule struct {
	Prog  *tac.Program
	Graph *dfg.Graph
	Cfg   dlx.Config
	// Cycle[node] is the 0-based issue cycle of each instruction.
	Cycle []int
	// Rows[c] lists the nodes issued at cycle c, in issue order.
	Rows [][]int
	// Method names the scheduler that produced this schedule.
	Method string
	// scratch, when non-nil, marks the Cycle/Rows storage as borrowed from a
	// Scratch buffer (recycled by that Scratch's next scheduling call). Clone
	// detaches; the package-level entry points always return detached
	// schedules.
	scratch *schedBuf
}

// Clone returns a deep copy of the schedule whose Cycle and Rows storage is
// owned by the caller (detached from any Scratch buffer). The Prog/Graph
// references are shared: both are immutable after construction.
func (s *Schedule) Clone() *Schedule {
	c := *s
	c.scratch = nil
	total := len(s.Cycle)
	for _, r := range s.Rows {
		total += len(r)
	}
	// Cycle and every row share one allocation; each is capacity-capped, so
	// appending to one never writes into the next.
	flat := make([]int, 0, total)
	flat = append(flat, s.Cycle...)
	c.Cycle = flat[:len(flat):len(flat)]
	c.Rows = make([][]int, len(s.Rows))
	for i, r := range s.Rows {
		if len(r) == 0 {
			c.Rows[i] = r // preserve nil-ness of empty rows
			continue
		}
		off := len(flat)
		flat = append(flat, r...)
		c.Rows[i] = flat[off:len(flat):len(flat)]
	}
	return &c
}

// Length returns the number of issue cycles (the paper's l, the instruction
// count of one scheduled iteration).
func (s *Schedule) Length() int { return len(s.Rows) }

// CompletionLength returns the cycle count until every instruction has
// completed (issue length plus trailing latency of the last finishers).
func (s *Schedule) CompletionLength() int {
	end := 0
	for v, c := range s.Cycle {
		fin := c + s.latency(v)
		if fin > end {
			end = fin
		}
	}
	return end
}

func (s *Schedule) latency(node int) int {
	return s.Cfg.Latency[s.Prog.Instrs[node].Class()]
}

// Occupancy returns, per function-unit class, the number of units busy in
// every cycle up to CompletionLength. Units are not pipelined — an
// instruction holds its unit for its full latency — matching Validate's
// resource model. Classes that need no unit (synchronization) are absent.
// The simulator's tracer uses it for empty-slot attribution.
func (s *Schedule) Occupancy() map[dlx.Class][]int {
	occupancy := map[dlx.Class][]int{}
	horizon := s.CompletionLength()
	for v := range s.Cycle {
		cls := s.Prog.Instrs[v].Class()
		if !dlx.NeedsUnit(cls) {
			continue
		}
		occ := occupancy[cls]
		if occ == nil {
			occ = make([]int, horizon)
			occupancy[cls] = occ
		}
		for c := s.Cycle[v]; c < s.Cycle[v]+s.latency(v); c++ {
			occ[c]++
		}
	}
	return occupancy
}

// PairSpan describes one synchronization pair's placement in the schedule.
type PairSpan struct {
	Signal string
	// Distance is the dependence distance d.
	Distance int
	// WaitCycle and SendCycle are issue cycles (j and i in the paper's
	// formula, measured in cycles rather than instruction positions).
	WaitCycle, SendCycle int
	// WaitNode and SendNode are the instruction indices.
	WaitNode, SendNode int
}

// LBD reports whether the pair remains lexically backward in the schedule:
// the send is not issued strictly before the wait.
func (p PairSpan) LBD() bool { return p.SendCycle >= p.WaitCycle }

// Span is i−j, the send-to-wait distance in cycles; only meaningful for LBD
// pairs (positive or zero).
func (p PairSpan) Span() int { return p.SendCycle - p.WaitCycle }

// PairSpans returns the placement of every synchronization pair, ordered by
// wait node index.
func (s *Schedule) PairSpans() []PairSpan {
	var out []PairSpan
	for v := range s.Prog.Instrs {
		if p, ok := s.pairAt(v); ok {
			out = append(out, p)
		}
	}
	return out
}

// pairAt returns the placement of the pair whose wait is instruction v, or
// false when v is not a wait or its signal is never sent.
func (s *Schedule) pairAt(v int) (PairSpan, bool) {
	in := &s.Prog.Instrs[v]
	if in.Op != tac.Wait {
		return PairSpan{}, false
	}
	send := s.Prog.SendOf(v)
	if send < 0 {
		return PairSpan{}, false
	}
	return PairSpan{
		Signal:    s.Prog.Name(in.Signal),
		Distance:  int(in.SigDist),
		WaitCycle: s.Cycle[v],
		SendCycle: s.Cycle[send],
		WaitNode:  v,
		SendNode:  send,
	}, true
}

// NumLBD returns the number of synchronization pairs that remain LBD.
func (s *Schedule) NumLBD() int {
	n := 0
	for v := range s.Prog.Instrs {
		if p, ok := s.pairAt(v); ok && p.LBD() {
			n++
		}
	}
	return n
}

// ChainBound is the LBD-chain bound on the parallel time of n >= 1
// iterations, ⌊(n−1)/d⌋·(i−j+1) + l maximized over the pairs that remain
// LBD, or l, the completion length, when none does: the dynamic form of the
// paper's (n/d)(i−j) + l (model.Predict). The synchronization-aware
// scheduler prices its candidate schedules with it.
func (s *Schedule) ChainBound(n int) int {
	l := s.CompletionLength()
	best := l
	for v := range s.Prog.Instrs {
		p, ok := s.pairAt(v)
		if !ok || !p.LBD() {
			continue
		}
		if t := (n-1)/p.Distance*(p.Span()+1) + l; t > best {
			best = t
		}
	}
	return best
}

// MaxLBDStall returns the worst per-iteration pipeline recurrence
// (n/d)·span over the remaining LBD pairs, normalized per iteration:
// max(span/d). This is the slope of the parallel execution time in n.
func (s *Schedule) MaxLBDStall() float64 {
	worst := 0.0
	for v := range s.Prog.Instrs {
		p, ok := s.pairAt(v)
		if !ok || !p.LBD() {
			continue
		}
		// The iteration-to-iteration recurrence advances d iterations per
		// span cycles (+1 cycle for the send to become visible).
		if r := float64(p.Span()+1) / float64(p.Distance); r > worst {
			worst = r
		}
	}
	return worst
}

// Validate checks that the schedule is well formed: every node scheduled
// exactly once, dependence arcs respected with latencies, and issue width
// and function-unit capacity never exceeded. The synchronization conditions
// are graph arcs (source store -> send, wait -> sink), so the arc check
// covers them. Its tables come from GetTable: a call allocates only the
// error it returns.
func (s *Schedule) Validate() error {
	n := s.Graph.N()
	if len(s.Cycle) != n {
		return fmt.Errorf("core: schedule covers %d of %d nodes", len(s.Cycle), n)
	}
	// Everything after the shape check may index by cycle: once it passes,
	// every cycle is a row index, which bounds the occupancy table below.
	if err := s.validateShape(); err != nil {
		return err
	}
	// Dependence + latency.
	for _, a := range s.Graph.Arcs {
		if s.Cycle[a.To] < s.Cycle[a.From]+s.latency(int(a.From)) {
			return fmt.Errorf("core: arc %v violated: %d -> %d with latency %d",
				a, s.Cycle[a.From], s.Cycle[a.To], s.latency(int(a.From)))
		}
	}
	// Function-unit occupancy (units are not pipelined: an instruction holds
	// its unit for its full latency), one row per class of a dense table.
	// Classes are checked in order, so the reported class and cycle do not
	// depend on anything but the schedule.
	horizon := s.CompletionLength()
	tab := GetTable(int(dlx.NumClasses) * horizon)
	defer PutTable(tab)
	busy := *tab
	for v, c := range s.Cycle {
		if cls := s.Prog.Instrs[v].Class(); dlx.NeedsUnit(cls) {
			row := busy[int(cls)*horizon:]
			for t, end := c, c+s.latency(v); t < end; t++ {
				row[t]++
			}
		}
	}
	for cls := dlx.Class(0); cls < dlx.NumClasses; cls++ {
		if !dlx.NeedsUnit(cls) {
			continue
		}
		for c, b := range busy[int(cls)*horizon : int(cls+1)*horizon] {
			if b > s.Cfg.Units[cls] {
				return fmt.Errorf("core: cycle %d oversubscribes %s units (%d > %d)",
					c, cls, b, s.Cfg.Units[cls])
			}
		}
	}
	return nil
}

// validateShape checks that the rows respect the issue width and name every
// node exactly once, in the row of its cycle.
func (s *Schedule) validateShape() error {
	n := len(s.Cycle)
	tab := GetTable(n)
	defer PutTable(tab)
	seen := *tab
	for c, row := range s.Rows {
		if len(row) > s.Cfg.Issue {
			return fmt.Errorf("core: cycle %d issues %d > width %d", c, len(row), s.Cfg.Issue)
		}
		for _, v := range row {
			if v < 0 || v >= n {
				return fmt.Errorf("core: cycle %d issues unknown node %d", c, v)
			}
			if seen[v] != 0 {
				return fmt.Errorf("core: node %d scheduled twice", v)
			}
			seen[v] = 1
			if s.Cycle[v] != c {
				return fmt.Errorf("core: node %d cycle mismatch (%d vs row %d)", v, s.Cycle[v], c)
			}
		}
	}
	for v := 0; v < n; v++ {
		if seen[v] == 0 {
			return fmt.Errorf("core: node %d (instr %s) not scheduled", v, s.Prog.Format(&s.Prog.Instrs[v]))
		}
	}
	return nil
}

// tablePool recycles the dense int tables of Validate, MaxLive and
// check.Verifier.Verify, which run on every freshly built schedule: a table
// lives only for one call, so the calls allocate nothing once the pool holds
// one large enough.
var tablePool = sync.Pool{New: func() any { return new([]int) }}

// GetTable returns a zeroed table of n ints from a package-level pool, for
// scratch that lives only for one call; hand it back with PutTable. It is
// safe for concurrent use.
func GetTable(n int) *[]int {
	t := tablePool.Get().(*[]int)
	if cap(*t) < n {
		*t = make([]int, n)
	} else {
		*t = (*t)[:n]
		clear(*t)
	}
	return t
}

// PutTable returns a table from GetTable to the pool; the caller must not
// use it afterwards.
func PutTable(t *[]int) { tablePool.Put(t) }

// MaxLive returns the peak number of simultaneously live temps in the
// schedule: a temp is live from its defining instruction's issue until its
// last consumer issues. This is the register-pressure cost of a schedule —
// the tension with scheduling freedom that the paper's reference [7]
// (Goodman & Hsu) studies. Both schedulers can trade pressure for span;
// the report tables expose the trade.
//
// The sweep runs over dense tables indexed by temp number, sized by the
// highest (and lowest) temp the program mentions rather than by NumTemps,
// so a hand-built program cannot index out of range. They come from
// GetTable, so a call allocates nothing.
func (s *Schedule) MaxLive() int {
	var buf [4]int // up to three uses and the def
	lo, hi := 0, 0
	for i := range s.Prog.Instrs {
		in := &s.Prog.Instrs[i]
		ts := in.AppendUses(buf[:0])
		if in.Dst != 0 {
			ts = append(ts, int(in.Dst))
		}
		for _, t := range ts {
			lo, hi = min(lo, t), max(hi, t)
		}
	}
	temps := hi - lo + 1
	horizon := s.Length()
	pt := GetTable(2*temps + horizon + 2)
	defer PutTable(pt)
	tab := *pt
	// defAt[t-lo] is the def cycle + 1 (0: never defined); lastUse[t-lo]
	// is the last consumer's issue cycle (0: no consumer after cycle 0).
	defAt, lastUse, delta := tab[:temps], tab[temps:2*temps], tab[2*temps:]
	for v := range s.Prog.Instrs {
		in := &s.Prog.Instrs[v]
		if in.Dst != 0 {
			defAt[int(in.Dst)-lo] = s.Cycle[v] + 1
		}
		for _, t := range in.AppendUses(buf[:0]) {
			if s.Cycle[v] > lastUse[t-lo] {
				lastUse[t-lo] = s.Cycle[v]
			}
		}
	}
	// Sweep cycles counting live intervals [def, lastUse].
	for k, d1 := range defAt {
		if d1 == 0 {
			continue
		}
		d, end := d1-1, lastUse[k]
		if end == 0 {
			end = d // dead value: live for its def cycle only
		}
		delta[d]++
		if end+1 <= horizon+1 {
			delta[end+1]--
		}
	}
	live, peak := 0, 0
	for c := 0; c <= horizon; c++ {
		live += delta[c]
		if live > peak {
			peak = live
		}
	}
	return peak
}

// String renders the schedule in the paper's Fig. 4 style: one line per
// cycle listing issued instruction IDs, dashes for empty slots.
func (s *Schedule) String() string {
	var sb strings.Builder
	for _, row := range s.Rows {
		parts := make([]string, 0, s.Cfg.Issue)
		for _, v := range row {
			parts = append(parts, fmt.Sprintf("%d", s.Prog.Instrs[v].ID))
		}
		for len(parts) < s.Cfg.Issue {
			parts = append(parts, "-")
		}
		fmt.Fprintf(&sb, "(%s)\n", strings.Join(parts, ", "))
	}
	return sb.String()
}

// Listing renders the schedule with full instruction text per row.
func (s *Schedule) Listing() string {
	var sb strings.Builder
	for c, row := range s.Rows {
		fmt.Fprintf(&sb, "cycle %3d:", c)
		for _, v := range row {
			fmt.Fprintf(&sb, "  [%d] %s", s.Prog.Instrs[v].ID, s.Prog.Format(&s.Prog.Instrs[v]))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Order returns the instruction indexes in issue order (row by row, left to
// right).
func (s *Schedule) Order() []int {
	out := make([]int, 0, len(s.Cycle))
	for _, row := range s.Rows {
		out = append(out, row...)
	}
	return out
}

// The shared resource-constrained cycle engine lives in engine.go: it runs
// entirely over reusable Scratch state (a calendar ring of pending nodes, a
// ready bitset over a static priority order, per-class occupancy slices) and
// the package-level Sync/List/Best entry points borrow a pooled Scratch and
// Clone the result.
