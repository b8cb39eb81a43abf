// Package sim is the multiprocessor DOACROSS simulator (the paper's §4.1
// statistical model backend): n iterations of a scheduled loop run on a
// shared-memory multiprocessor, one iteration per superscalar processor,
// synchronized through a shared signal vector.
//
// Two engines are provided:
//
//   - Time: a fast recurrence model that computes issue times analytically.
//     Each processor issues schedule rows in order, one row per cycle; a row
//     containing Wait_Signal(S, i−d) cannot issue before iteration i−d's
//     Send_Signal(S) has issued and become visible (one cycle later).
//     The recurrence is shift-invariant, so once the machine reaches a
//     steady state — every iteration the one p earlier plus Δ cycles, the
//     exact form of the paper's T = (n/d)(i−j) + l — Time stops walking and
//     finishes in closed form: its cost is O(transient + period), not O(n).
//     Traced runs (Options.Tracer set) still walk every iteration, which
//     makes them the built-in full-walk reference.
//   - Run: a detailed cycle-stepped simulator that additionally *executes*
//     the instructions against a shared memory store, setting and testing
//     real signals. Its final memory is compared against sequential
//     execution by the differential tests, which is the strongest evidence
//     that scheduling plus synchronization preserved the loop's meaning. Its
//     timing is bit-identical to Time's by construction, which the tests
//     also verify.
//
// Both engines support fewer processors than iterations (blocked cyclic
// assignment: processor p runs iterations p, p+P, ...), defaulting to the
// paper's assumption of n processors for n iterations.
package sim

import (
	"fmt"

	"doacross/internal/core"
	"doacross/internal/lang"
	"doacross/internal/tac"
)

// Options configures a simulation.
type Options struct {
	// Lo and Hi are the iteration bounds (inclusive). Hi < Lo means a
	// zero-trip loop.
	Lo, Hi int
	// Procs is the processor count; 0 means one processor per iteration.
	Procs int
	// Window bounds the synchronization hardware: each signal has Window
	// slots, and slot (i mod Window) cannot be overwritten by iteration i's
	// send until every wait consuming iteration i-Window's signal has
	// executed (the bounded signal buffers of the Zhu/Yew and Su/Yew schemes
	// the paper cites). 0 means unbounded (one slot per iteration, the
	// paper's idealized assumption). A window smaller than the largest
	// dependence distance deadlocks and is reported as an error.
	Window int
	// MaxCycles is a hard cycle budget for the detailed simulator (Run):
	// when the simulation reaches it with iterations unfinished, a
	// budget-exhausted error reporting the blocked iteration set is returned
	// instead of spinning. 0 derives a generous bound from n and the
	// schedule length (any correct schedule finishes well inside it), so a
	// pathological schedule is always caught.
	MaxCycles int
	// Tracer, when non-nil, records a cycle-accurate execution trace with
	// stall-cause attribution (both engines fill it identically). Nil costs
	// the hot path nothing.
	Tracer *Tracer
}

// N returns the trip count.
func (o Options) N() int {
	if o.Hi < o.Lo {
		return 0
	}
	return o.Hi - o.Lo + 1
}

func (o Options) procs() int {
	if o.Procs > 0 {
		return o.Procs
	}
	n := o.N()
	if n == 0 {
		return 1
	}
	return n
}

// Timing is the result of a simulation.
type Timing struct {
	// Total is the parallel execution time in cycles: the cycle after the
	// last instruction of the last iteration completes.
	Total int
	// StallCycles counts cycles lost to synchronization waits, summed over
	// all iterations.
	StallCycles int
	// SignalsSent counts Send_Signal issues over all iterations — the
	// paper-level synchronization traffic (every send issues once per
	// iteration regardless of whether a consumer iteration exists).
	SignalsSent int
}

// consumer is one wait instruction's placement: the row it issues in and its
// dependence distance.
type consumer struct {
	row, dist int
}

// rowMeta precomputes per-row wait constraints and the per-signal send row.
type rowMeta struct {
	length   int
	rows     [][]int
	waits    [][]*tac.Instr // waits issued in each row
	sendRow  map[string]int // signal -> row of its send
	sends    [][]string     // signals sent in each row
	consume  map[string][]consumer
	rowLat   []int // max completion offset of a row's instructions
	maxDist  int
	schedule *core.Schedule
}

func newRowMeta(s *core.Schedule) (*rowMeta, error) {
	m := &rowMeta{
		length:   s.Length(),
		rows:     s.Rows,
		waits:    make([][]*tac.Instr, s.Length()),
		sendRow:  map[string]int{},
		sends:    make([][]string, s.Length()),
		consume:  map[string][]consumer{},
		rowLat:   make([]int, s.Length()),
		maxDist:  1,
		schedule: s,
	}
	for r, row := range s.Rows {
		for _, v := range row {
			in := &s.Prog.Instrs[v]
			lat := s.Cfg.Latency[in.Class()]
			if lat > m.rowLat[r] {
				m.rowLat[r] = lat
			}
			sig := s.Prog.Name(in.Signal)
			switch in.Op {
			case tac.Wait:
				m.waits[r] = append(m.waits[r], in)
				m.consume[sig] = append(m.consume[sig], consumer{row: r, dist: int(in.SigDist)})
				m.maxDist = max(m.maxDist, int(in.SigDist))
			case tac.Send:
				m.sendRow[sig] = r
				m.sends[r] = append(m.sends[r], sig)
			}
		}
	}
	for r := range m.waits {
		for _, w := range m.waits[r] {
			if _, ok := m.sendRow[s.Prog.Name(w.Signal)]; !ok {
				return nil, fmt.Errorf("sim: wait on signal %s with no send in schedule", s.Prog.Name(w.Signal))
			}
		}
	}
	return m, nil
}

// checkWindow validates a bounded signal window against the schedule.
func (m *rowMeta) checkWindow(window int) error {
	if window <= 0 {
		return nil
	}
	if window < m.maxDist {
		return fmt.Errorf("sim: signal window %d smaller than the largest dependence distance %d (deadlock)", window, m.maxDist)
	}
	for sig, cs := range m.consume {
		for _, c := range cs {
			if c.dist == window && m.sendRow[sig] <= c.row {
				return fmt.Errorf("sim: signal window %d equals distance %d of an LFD pair on %s (send would wait for its own iteration's wait)", window, c.dist, sig)
			}
		}
	}
	return nil
}

// Time computes the parallel execution time with the recurrence model. Its
// working state (the schedule's synchronization structure in interned CSR
// form plus the iteration ring) is pooled, so warm calls allocate nothing.
// Without a Tracer it walks iterations only until the machine repeats itself
// and finishes in closed form; with one it walks every iteration.
func Time(s *core.Schedule, opt Options) (Timing, error) {
	sc := timePool.Get().(*timeScratch)
	t, _, err := sc.run(s, opt)
	timePool.Put(sc)
	return t, err
}

// MustTime is Time for known-good inputs.
func MustTime(s *core.Schedule, opt Options) Timing {
	t, err := Time(s, opt)
	if err != nil {
		panic(err)
	}
	return t
}

// Run executes the scheduled loop on the detailed simulator against st,
// which must contain the loop's input data (including the bound scalar,
// e.g. N). The store is mutated in place. The returned timing matches Time.
func Run(s *core.Schedule, st *lang.Store, opt Options) (Timing, error) {
	m, err := newRowMeta(s)
	if err != nil {
		return Timing{}, err
	}
	if err := m.checkWindow(opt.Window); err != nil {
		return Timing{}, err
	}
	n := opt.N()
	tr := opt.Tracer
	if tr != nil {
		tr.reset(s, opt)
	}
	var t Timing
	if n == 0 || m.length == 0 {
		if tr != nil {
			tr.Timing = t
		}
		return t, nil
	}
	procs := opt.procs()
	// rowTime[i][r] is the cycle iteration i issued row r (-1 = not yet) —
	// used for bounded-window send gating.
	var rowTime [][]int
	if opt.Window > 0 {
		rowTime = make([][]int, n)
		for i := range rowTime {
			rowTime[i] = make([]int, m.length)
			for r := range rowTime[i] {
				rowTime[i][r] = -1
			}
		}
	}

	type proc struct {
		idx     int // iteration index currently executing (0-based), -1 done
		row     int
		frame   *tac.Frame
		prevT   int // issue time of previous row
		maxDone int // completion horizon of issued rows
		started bool
	}
	// signals[sig][iterIdx] = cycle the send issued (-1 = not yet).
	signals := map[string][]int{}
	for sig := range m.sendRow {
		v := make([]int, n)
		for i := range v {
			v[i] = -1
		}
		signals[sig] = v
	}
	ps := make([]*proc, procs)
	nextIter := 0
	for p := range ps {
		ps[p] = &proc{idx: -1}
		if nextIter < n {
			ps[p].idx = nextIter
			ps[p].frame = tac.NewFrame(s.Prog.NumTemps, opt.Lo+nextIter)
			if tr != nil {
				tr.Iters[nextIter].Proc = p
				tr.Iters[nextIter].Start = 0
			}
			nextIter++
		}
	}
	// Hard cycle budget: explicit (Options.MaxCycles) or derived from the
	// trip count and schedule length — any correct schedule finishes well
	// inside the derived bound, so exceeding it means a deadlock or a
	// pathological schedule rather than slow progress.
	budget := opt.MaxCycles
	derived := budget <= 0
	if derived {
		budget = (n+1)*(m.length+8)*4 + 1024
	}
	remaining := n
	for cycle := 0; remaining > 0; cycle++ {
		if cycle > budget {
			// Error path only: the blocked-iteration set is built lazily here
			// so the happy path constructs nothing.
			var blocked []int
			for _, p := range ps {
				if p.idx >= 0 {
					blocked = append(blocked, opt.Lo+p.idx)
				}
			}
			if derived {
				return Timing{}, fmt.Errorf("sim: deadlock at cycle %d (%d iterations unfinished; blocked iterations %v)",
					cycle, remaining, blocked)
			}
			return Timing{}, fmt.Errorf("sim: cycle budget %d exhausted (%d iterations unfinished; blocked iterations %v)",
				budget, remaining, blocked)
		}
		for pi, p := range ps {
			if p.idx < 0 {
				continue
			}
			if p.started && cycle < p.prevT+1 {
				continue
			}
			// Check wait constraints for the next row.
			ok := true
			for _, w := range m.waits[p.row] {
				iter := opt.Lo + p.idx
				if iter-int(w.SigDist) < opt.Lo {
					continue
				}
				srcIdx := p.idx - int(w.SigDist)
				sendT := signals[s.Prog.Name(w.Signal)][srcIdx]
				if sendT == -1 || cycle < sendT+1 {
					ok = false
					break
				}
			}
			// Bounded-window send gating: sends in this row reuse the slot of
			// iteration idx-Window; every consumer of the old signal must
			// have issued strictly earlier.
			if ok && opt.Window > 0 && p.idx-opt.Window >= 0 {
			gate:
				for _, sig := range m.sends[p.row] {
					for _, c := range m.consume[sig] {
						cIdx := p.idx - opt.Window + c.dist
						if cIdx < 0 || cIdx == p.idx {
							// Same-iteration consumers sit in earlier rows
							// (validated) and have necessarily issued.
							continue
						}
						if ct := rowTime[cIdx][c.row]; ct == -1 || ct >= cycle {
							ok = false
							break gate
						}
					}
				}
			}
			if !ok {
				t.StallCycles++
				continue
			}
			if tr != nil {
				it := &tr.Iters[p.idx]
				it.Rows[p.row] = int32(cycle)
				lower := 0
				if p.started {
					lower = p.prevT + 1
				}
				if cycle > lower {
					m.attributeStalls(it, p.idx, p.row, lower, cycle, opt, signals, rowTime)
				}
			}
			// Issue the row: execute its instructions against shared memory.
			for _, v := range m.rows[p.row] {
				in := &s.Prog.Instrs[v]
				if in.Op == tac.Send {
					signals[s.Prog.Name(in.Signal)][p.idx] = cycle
					t.SignalsSent++
					continue
				}
				if err := s.Prog.Exec(in, p.frame, st); err != nil {
					return Timing{}, fmt.Errorf("sim: iteration %d instr %d: %w", opt.Lo+p.idx, in.ID, err)
				}
			}
			if rowTime != nil {
				rowTime[p.idx][p.row] = cycle
			}
			if fin := cycle + m.rowLat[p.row]; fin > p.maxDone {
				p.maxDone = fin
			}
			p.prevT = cycle
			p.started = true
			p.row++
			if p.row == m.length {
				done := p.maxDone
				if tr != nil {
					tr.Iters[p.idx].Done = done
				}
				if done > t.Total {
					t.Total = done
				}
				remaining--
				// Blocked cyclic reuse (matching the recurrence engine and the
				// package doc): processor p runs iterations p, p+P, ... — the
				// next iteration's first row can issue no earlier than the
				// cycle after this one (started stays true so the prevT gate
				// applies).
				next := p.idx + procs
				p.idx = -1
				if next < n {
					p.idx = next
					p.row = 0
					p.maxDone = 0
					p.frame = tac.NewFrame(s.Prog.NumTemps, opt.Lo+next)
					if tr != nil {
						tr.Iters[next].Proc = pi
						tr.Iters[next].Start = cycle + 1
					}
				}
			}
		}
	}
	if tr != nil {
		tr.Timing = t
	}
	return t, nil
}

// attributeStalls reconstructs, at a row's issue cycle, the attributed wait
// spans covering [lower, issue): first the binding synchronization wait
// (the latest send the row waited on), then the bounded-window gate. The
// constraints are monotone — once satisfiable they stay satisfiable — so the
// issue cycle is exactly their maximum and the spans partition the gap.
func (m *rowMeta) attributeStalls(it *IterTrace, idx, row, lower, issue int, opt Options, signals map[string][]int, rowTime [][]int) {
	syncTo := lower
	var bind *tac.Instr
	prog := m.schedule.Prog
	for _, w := range m.waits[row] {
		if idx-int(w.SigDist) < 0 {
			continue
		}
		if sendT := signals[prog.Name(w.Signal)][idx-int(w.SigDist)]; sendT+1 > syncTo {
			syncTo = sendT + 1
			bind = w
		}
	}
	if syncTo > issue {
		syncTo = issue
	}
	if bind != nil && syncTo > lower {
		it.Stalls = append(it.Stalls, Stall{
			Row: row, From: lower, To: syncTo, Cause: CauseSyncWait,
			Signal: prog.Name(bind.Signal), Dist: int(bind.SigDist), SrcIter: idx - int(bind.SigDist),
			SendCycle: syncTo - 1, LBD: m.sendRow[prog.Name(bind.Signal)] >= row,
		})
	}
	if issue > syncTo {
		st := Stall{Row: row, From: syncTo, To: issue, Cause: CauseWindowWait}
		if opt.Window > 0 && idx-opt.Window >= 0 {
			winTo := syncTo
			for _, sig := range m.sends[row] {
				for _, c := range m.consume[sig] {
					cIdx := idx - opt.Window + c.dist
					if cIdx < 0 || cIdx == idx {
						continue
					}
					if ct := rowTime[cIdx][c.row]; ct+1 > winTo {
						winTo = ct + 1
						st.Signal, st.Dist, st.SrcIter, st.SendCycle = sig, c.dist, cIdx, ct
					}
				}
			}
		}
		it.Stalls = append(it.Stalls, st)
	}
}
