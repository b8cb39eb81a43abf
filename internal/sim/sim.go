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
//     the instructions against a shared memory store. Its final memory is
//     compared against sequential execution by the differential tests, which
//     is the strongest evidence that scheduling plus synchronization
//     preserved the loop's meaning.
//
// Both engines read one lowering of the schedule's Send/Wait structure
// (timeScratch.build), one signal-window check and one stall attribution.
// They differ in how time advances: Time solves the issue recurrence an
// iteration at a time, while Run steps cycle by cycle over its own
// processors, frames and executed memory, under a cycle budget that reports
// a deadlock. Their timings and traces are bit-identical, which the tests
// verify; Tracer.Check's books and the differential tests against the
// sequential interpreter stay independent of the shared lowering.
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
//
// Run reads the schedule through Time's lowering (a pooled timeScratch) but
// issues rows cycle by cycle on its own processors, gating each event row on
// the recorded issue cycles of the sends it waits for and, under a window,
// of the consumers of the slot its sends reuse.
func Run(s *core.Schedule, st *lang.Store, opt Options) (Timing, error) {
	sc := timePool.Get().(*timeScratch)
	defer timePool.Put(sc)
	if empty, err := sc.prepare(s, opt); err != nil || empty {
		return Timing{}, err
	}
	L, n, tr := s.Length(), opt.N(), opt.Tracer
	var t Timing
	// issued[idx*E+e] is the cycle iteration idx issued event row e (-1 =
	// not yet): Time's ring layout, one row per iteration and no wrap-around.
	// It is Run's own allocation, so a long run leaves nothing large in the
	// pool.
	E := len(sc.evRow)
	issued := make([]int, n*E)
	for i := range issued {
		issued[i] = -1
	}
	type proc struct {
		idx     int // iteration index currently executing (0-based), -1 done
		row, ev int // next row, and the event index of the next event row
		frame   *tac.Frame
		prevT   int // issue time of previous row
		maxDone int // completion horizon of issued rows
		started bool
	}
	// A processor past the trip count would never run an iteration.
	procs := min(opt.procs(), n)
	ps := make([]proc, procs)
	for p := range ps {
		ps[p] = proc{idx: p, frame: tac.NewFrame(s.Prog.NumTemps, opt.Lo+p)}
		if tr != nil {
			tr.Iters[p].Proc = p
		}
	}
	// Hard cycle budget: explicit (Options.MaxCycles) or derived from the
	// trip count and schedule length — any correct schedule finishes well
	// inside the derived bound, so exceeding it means a deadlock or a
	// pathological schedule rather than slow progress.
	budget := opt.MaxCycles
	derived := budget <= 0
	if derived {
		budget = (n+1)*(L+8)*4 + 1024
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
		for pi := range ps {
			p := &ps[pi]
			if p.idx < 0 || p.started && cycle <= p.prevT {
				continue
			}
			// Only event rows (a Wait or Send) can stall.
			e := -1
			if p.ev < E && int(sc.evRow[p.ev]) == p.row {
				e = p.ev
			}
			if e >= 0 && !sc.ready(issued, p.idx, e, cycle, opt.Window) {
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
					sc.attributeStalls(it, p.idx, e, p.row, lower, cycle, opt, issued, p.idx*E, E, n*E)
				}
			}
			// Issue the row: execute its instructions against shared memory.
			for _, v := range s.Rows[p.row] {
				in := &s.Prog.Instrs[v]
				if in.Op == tac.Send {
					t.SignalsSent++
					continue
				}
				if err := s.Prog.Exec(in, p.frame, st); err != nil {
					return Timing{}, fmt.Errorf("sim: iteration %d instr %d: %w", opt.Lo+p.idx, in.ID, err)
				}
			}
			if e >= 0 {
				issued[p.idx*E+e] = cycle
				p.ev++
			}
			if fin := cycle + sc.rowLat[p.row]; fin > p.maxDone {
				p.maxDone = fin
			}
			p.prevT = cycle
			p.started = true
			p.row++
			if p.row == L {
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
					p.row, p.ev = 0, 0
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

// ready reports whether iteration idx's event row e may issue at cycle, given
// the issue cycles recorded so far: every send it waits for issued before
// cycle, and under a window every consumer of the slot its sends reuse
// issued before cycle. Consumers in the same iteration sit in earlier rows
// (checkWindow) and have necessarily issued.
func (sc *timeScratch) ready(issued []int, idx, e, cycle, window int) bool {
	E := len(sc.evRow)
	for k := sc.waitOff[e]; k < sc.waitOff[e+1]; k++ {
		src := idx - sc.waitDist[k]
		if src < 0 {
			continue // no earlier iteration to wait for
		}
		if sendT := issued[src*E+int(sc.sendEv[sc.waitSig[k]])]; sendT < 0 || sendT >= cycle {
			return false
		}
	}
	if window <= 0 || idx-window < 0 {
		return true
	}
	for k := sc.sendOff[e]; k < sc.sendOff[e+1]; k++ {
		id := sc.sendSig[k]
		for c := sc.consOff[id]; c < sc.consOff[id+1]; c++ {
			back := window - sc.consDist[c]
			if back == 0 {
				continue
			}
			if ct := issued[(idx-back)*E+int(sc.consEv[c])]; ct < 0 || ct >= cycle {
				return false
			}
		}
	}
	return true
}
