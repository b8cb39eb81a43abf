package sim

import (
	"fmt"
	"sort"

	"doacross/internal/core"
	"doacross/internal/dlx"
)

// Cause classifies where a machine cycle (or an empty issue slot) went.
// Causes are exhaustive: every non-issue processor cycle is attributed to
// exactly one of them, and Tracer.Check enforces that the attribution adds
// up bit-exactly against the engine's own Timing counters.
type Cause uint8

const (
	// CauseIssued is a cycle (or slot) doing useful work.
	CauseIssued Cause = iota
	// CauseRAW marks an empty issue slot whose next candidate instruction
	// was not data-ready: a RAW/latency dependence on a named instruction.
	CauseRAW
	// CauseFUBusy marks an empty issue slot whose next candidate was ready
	// but its function-unit class was fully occupied that cycle.
	CauseFUBusy
	// CauseIssueWidth marks an empty issue slot whose next candidate was
	// ready with a free unit — the scheduler spent its issue bandwidth
	// elsewhere (heuristic placement, not a hardware hazard).
	CauseIssueWidth
	// CauseSyncWait is a processor cycle stalled on a DOACROSS
	// Wait_Signal whose producing Send_Signal had not yet become visible.
	CauseSyncWait
	// CauseWindowWait is a processor cycle stalled by the bounded signal
	// window: a send could not overwrite its slot until every consumer of
	// the old signal had issued.
	CauseWindowWait
	// CauseDrain is a processor cycle with no iteration to issue (before
	// its first assignment, after its last row, or an empty slot past the
	// last candidate instruction) — pipeline fill/drain, the epilogue.
	CauseDrain
)

func (c Cause) String() string {
	switch c {
	case CauseIssued:
		return "issued"
	case CauseRAW:
		return "raw"
	case CauseFUBusy:
		return "fu_busy"
	case CauseIssueWidth:
		return "issue_width"
	case CauseSyncWait:
		return "sync_wait"
	case CauseWindowWait:
		return "window_wait"
	case CauseDrain:
		return "drain"
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Stall is one attributed wait span of an iteration: the half-open cycle
// range [From, To) during which row Row was ready in program order but
// could not issue.
type Stall struct {
	// Row is the schedule row that was blocked.
	Row int
	// From and To bound the stalled cycles, half-open.
	From, To int
	// Cause is CauseSyncWait or CauseWindowWait.
	Cause Cause
	// Signal names the binding synchronization signal: for a sync wait the
	// awaited Send_Signal, for a window wait the signal whose buffer slot
	// the send had to reuse.
	Signal string
	// Dist is the dependence distance of the binding pair.
	Dist int
	// SrcIter is the 0-based iteration index the stall waited on: the
	// sender iteration (sync) or the lagging consumer iteration (window).
	SrcIter int
	// SendCycle is the cycle the binding event issued (the send for a sync
	// wait; the consuming wait for a window wait). The stall ends one cycle
	// later — signals become visible the cycle after they are set.
	SendCycle int
	// LBD reports whether the binding pair is lexically backward in the
	// schedule (send row at or after the wait row); only set for sync waits.
	LBD bool
}

// Cycles is the span length.
func (s Stall) Cycles() int { return s.To - s.From }

// IterTrace is the per-iteration machine trace: which cycle every schedule
// row issued, on which processor, and every attributed stall span.
type IterTrace struct {
	// Index is the 0-based iteration index (absolute iteration = Lo+Index).
	Index int
	// Proc is the processor the iteration ran on.
	Proc int
	// Start is the first cycle the processor considered the iteration's
	// first row; Done is the completion cycle of its last instruction.
	Start, Done int
	// Rows[r] is the cycle schedule row r issued.
	Rows []int32
	// Stalls are the attributed wait spans, in row order.
	Stalls []Stall
}

// slotAttr is the static attribution of one empty issue slot of one
// schedule row (identical across iterations: every iteration executes the
// same schedule).
type slotAttr struct {
	cause   Cause
	cand    int32 // candidate instruction index considered, -1 = none
	blocker int32 // RAW: the unfinished predecessor it depended on
}

// Tracer is the opt-in cycle-accurate execution trace of one simulation.
// Set Options.Tracer before calling Run or Time and the engine fills it;
// a nil tracer costs the hot path nothing. A Tracer may be reused across
// simulations — each run resets it.
type Tracer struct {
	// Loop is an optional caller-supplied label for exports.
	Loop string

	// Geometry of the traced run.
	N, Procs, Length, Width, Window, Lo int

	// Timing is a copy of the engine's result.
	Timing Timing
	// Iters holds one trace per iteration.
	Iters []IterTrace

	sched   *core.Schedule
	rowsBuf []int32
	slots   []slotAttr
	slotOff []int32
}

// Machine returns the traced machine configuration's name.
func (tr *Tracer) Machine() string {
	if tr.sched == nil {
		return ""
	}
	return tr.sched.Cfg.Name
}

// Schedule returns the schedule the trace was recorded against.
func (tr *Tracer) Schedule() *core.Schedule { return tr.sched }

// reset prepares the tracer for a run of schedule s under opt. Rows buffers
// are carved from one flat grow-once backing array.
func (tr *Tracer) reset(s *core.Schedule, opt Options) {
	tr.sched = s
	tr.N = opt.N()
	tr.Procs = opt.procs()
	tr.Lo = opt.Lo
	tr.Window = opt.Window
	tr.Length = s.Length()
	tr.Width = s.Cfg.Issue
	tr.Timing = Timing{}
	n, L := tr.N, tr.Length
	if cap(tr.rowsBuf) < n*L {
		tr.rowsBuf = make([]int32, n*L)
	}
	buf := tr.rowsBuf[:n*L]
	for i := range buf {
		buf[i] = -1
	}
	if cap(tr.Iters) < n {
		grown := make([]IterTrace, n)
		copy(grown, tr.Iters)
		tr.Iters = grown
	}
	tr.Iters = tr.Iters[:n]
	for i := range tr.Iters {
		stalls := tr.Iters[i].Stalls
		if stalls != nil {
			stalls = stalls[:0]
		}
		tr.Iters[i] = IterTrace{Index: i, Proc: -1, Rows: buf[i*L : (i+1)*L : (i+1)*L], Stalls: stalls}
	}
	tr.buildSlots()
}

// buildSlots statically attributes every empty issue slot of every schedule
// row. The candidate stream walks instructions in schedule order: an empty
// slot in row r is explained by the next instruction the scheduler placed
// later — RAW if it was not data-ready at r, FUBusy if its unit class was
// saturated, IssueWidth otherwise; no candidate left means drain.
func (tr *Tracer) buildSlots() {
	tr.slots = tr.slots[:0]
	tr.slotOff = append(tr.slotOff[:0], 0)
	s := tr.sched
	L := tr.Length
	if s == nil || L == 0 {
		return
	}
	nodes := len(s.Cycle)
	order := make([]int, nodes)
	for v := range order {
		order[v] = v
	}
	sort.SliceStable(order, func(a, b int) bool { return s.Cycle[order[a]] < s.Cycle[order[b]] })
	occ := s.Occupancy()
	ptr := 0
	for r := 0; r < L; r++ {
		for ptr < nodes && s.Cycle[order[ptr]] <= r {
			ptr++
		}
		empty := tr.Width - len(s.Rows[r])
		p := ptr
		for k := 0; k < empty; k++ {
			if p >= nodes {
				tr.slots = append(tr.slots, slotAttr{cause: CauseDrain, cand: -1, blocker: -1})
				continue
			}
			v := order[p]
			p++
			tr.slots = append(tr.slots, tr.classifySlot(occ, v, r))
		}
		tr.slotOff = append(tr.slotOff, int32(len(tr.slots)))
	}
}

// classifySlot explains why candidate v (scheduled later) did not fill an
// empty slot in row r, mirroring Validate's dependence and occupancy model.
func (tr *Tracer) classifySlot(occ map[dlx.Class][]int, v, r int) slotAttr {
	s := tr.sched
	if s.Graph != nil {
		blocker, worst := int32(-1), r
		for _, u := range s.Graph.Pred(v) {
			if fin := s.Cycle[u] + s.Cfg.Latency[s.Prog.Instrs[u].Class()]; fin > worst {
				worst, blocker = fin, u
			}
		}
		if blocker >= 0 {
			return slotAttr{cause: CauseRAW, cand: int32(v), blocker: blocker}
		}
	}
	cls := s.Prog.Instrs[v].Class()
	if dlx.NeedsUnit(cls) {
		if o := occ[cls]; r < len(o) && o[r] >= s.Cfg.Units[cls] {
			return slotAttr{cause: CauseFUBusy, cand: int32(v), blocker: -1}
		}
	}
	return slotAttr{cause: CauseIssueWidth, cand: int32(v), blocker: -1}
}

// ProcUtil is one processor's cycle breakdown; the four columns sum to the
// machine's total cycle count.
type ProcUtil struct {
	Proc       int `json:"proc"`
	Issued     int `json:"issued"`
	SyncWait   int `json:"sync_wait"`
	WindowWait int `json:"window_wait"`
	Drain      int `json:"drain"`
}

// FUUtil is one function-unit class's occupancy over the whole run.
type FUUtil struct {
	Class string `json:"class"`
	// Units is the per-processor unit count of the class.
	Units int `json:"units"`
	// BusyCycles is unit-cycles held (units are not pipelined), summed over
	// iterations; Occupancy divides by Units×Procs×Cycles.
	BusyCycles int     `json:"busy_cycles"`
	Occupancy  float64 `json:"occupancy"`
}

// Utilization is the machine-level utilization report derived from a trace:
// where every processor cycle and issue slot went.
type Utilization struct {
	Loop    string `json:"loop,omitempty"`
	Machine string `json:"machine"`
	N       int    `json:"n"`
	Procs   int    `json:"procs"`
	Length  int    `json:"schedule_length"`
	Width   int    `json:"issue_width"`
	Window  int    `json:"window,omitempty"`
	// Cycles is the makespan; the per-processor breakdown sums to it.
	Cycles  int        `json:"cycles"`
	PerProc []ProcUtil `json:"per_proc"`
	// Cycle-level totals over all processors.
	IssuedCycles     int `json:"issued_cycles"`
	SyncWaitCycles   int `json:"sync_wait_cycles"`
	WindowWaitCycles int `json:"window_wait_cycles"`
	DrainCycles      int `json:"drain_cycles"`
	// Issue-slot accounting: SlotsTotal = Procs×Cycles×Width, SlotsIssued
	// the instructions actually issued.
	SlotsTotal     int     `json:"slots_total"`
	SlotsIssued    int     `json:"slots_issued"`
	SlotEfficiency float64 `json:"slot_efficiency"`
	// Empty-slot cause histogram over issued rows (per iteration × N).
	EmptyRAW    int `json:"empty_raw"`
	EmptyFUBusy int `json:"empty_fu_busy"`
	EmptyWidth  int `json:"empty_issue_width"`
	EmptyDrain  int `json:"empty_drain"`
	// Function-unit occupancy by class.
	FU []FUUtil `json:"fu"`
	// Synchronization breakdown: wait-stall cycles split by arc kind, plus
	// the paper-level counters copied from Timing.
	LBDWaitCycles   int `json:"lbd_wait_cycles"`
	LFDWaitCycles   int `json:"lfd_wait_cycles"`
	SignalsSent     int `json:"signals_sent"`
	WaitStallCycles int `json:"wait_stall_cycles"`
}

// Utilization derives the utilization report from the trace.
func (tr *Tracer) Utilization() *Utilization {
	u := &Utilization{
		Loop:    tr.Loop,
		Machine: tr.Machine(),
		N:       tr.N,
		Procs:   tr.Procs,
		Length:  tr.Length,
		Width:   tr.Width,
		Window:  tr.Window,
		Cycles:  tr.Timing.Total,
	}
	u.PerProc = make([]ProcUtil, tr.Procs)
	for p := range u.PerProc {
		u.PerProc[p].Proc = p
	}
	for i := range tr.Iters {
		it := &tr.Iters[i]
		if it.Proc < 0 || it.Proc >= tr.Procs {
			continue
		}
		pp := &u.PerProc[it.Proc]
		pp.Issued += tr.Length
		for _, st := range it.Stalls {
			switch st.Cause {
			case CauseSyncWait:
				pp.SyncWait += st.Cycles()
				if st.LBD {
					u.LBDWaitCycles += st.Cycles()
				} else {
					u.LFDWaitCycles += st.Cycles()
				}
			case CauseWindowWait:
				pp.WindowWait += st.Cycles()
			}
		}
	}
	for p := range u.PerProc {
		pp := &u.PerProc[p]
		pp.Drain = u.Cycles - pp.Issued - pp.SyncWait - pp.WindowWait
		u.IssuedCycles += pp.Issued
		u.SyncWaitCycles += pp.SyncWait
		u.WindowWaitCycles += pp.WindowWait
		u.DrainCycles += pp.Drain
	}
	u.SlotsTotal = tr.Procs * u.Cycles * tr.Width
	if s := tr.sched; s != nil {
		u.SlotsIssued = tr.N * len(s.Cycle)
		for _, sa := range tr.slots {
			switch sa.cause {
			case CauseRAW:
				u.EmptyRAW += tr.N
			case CauseFUBusy:
				u.EmptyFUBusy += tr.N
			case CauseIssueWidth:
				u.EmptyWidth += tr.N
			case CauseDrain:
				u.EmptyDrain += tr.N
			}
		}
		busy := map[dlx.Class]int{}
		for v := range s.Cycle {
			cls := s.Prog.Instrs[v].Class()
			if dlx.NeedsUnit(cls) {
				busy[cls] += s.Cfg.Latency[cls]
			}
		}
		for cls := dlx.Class(0); cls < dlx.NumClasses; cls++ {
			if !dlx.NeedsUnit(cls) || s.Cfg.Units[cls] == 0 || busy[cls] == 0 {
				continue
			}
			fu := FUUtil{Class: cls.String(), Units: s.Cfg.Units[cls], BusyCycles: tr.N * busy[cls]}
			if avail := s.Cfg.Units[cls] * tr.Procs * u.Cycles; avail > 0 {
				fu.Occupancy = float64(fu.BusyCycles) / float64(avail)
			}
			u.FU = append(u.FU, fu)
		}
	}
	if u.SlotsTotal > 0 {
		u.SlotEfficiency = float64(u.SlotsIssued) / float64(u.SlotsTotal)
	}
	u.SignalsSent = tr.Timing.SignalsSent
	u.WaitStallCycles = tr.Timing.StallCycles
	return u
}

// Check verifies the trace's books against an engine Timing: every
// processor's issued + attributed-stall + drain cycles equal the machine's
// total cycles, every iteration's non-issue cycles are fully attributed,
// and the stall totals match the engine's counters bit-exactly.
func (tr *Tracer) Check(tm Timing) error {
	if len(tr.Iters) != tr.N {
		return fmt.Errorf("sim: trace covers %d of %d iterations", len(tr.Iters), tr.N)
	}
	if tr.Timing.Total != tm.Total || tr.Timing.StallCycles != tm.StallCycles || tr.Timing.SignalsSent != tm.SignalsSent {
		return fmt.Errorf("sim: trace timing %+v disagrees with engine timing (total %d, stalls %d, signals %d)",
			tr.Timing, tm.Total, tm.StallCycles, tm.SignalsSent)
	}
	if tr.Length == 0 {
		return nil
	}
	type acc struct{ issued, sync, window int }
	per := make([]acc, tr.Procs)
	total := 0
	for i := range tr.Iters {
		it := &tr.Iters[i]
		if it.Proc < 0 || it.Proc >= tr.Procs {
			return fmt.Errorf("sim: iteration %d on processor %d of %d", i, it.Proc, tr.Procs)
		}
		per[it.Proc].issued += tr.Length
		attr := 0
		prev := it.Start - 1
		for r, c := range it.Rows {
			if int(c) <= prev {
				return fmt.Errorf("sim: iteration %d row %d issued at %d, not after cycle %d", i, r, c, prev)
			}
			prev = int(c)
		}
		for _, st := range it.Stalls {
			if st.Cycles() <= 0 {
				return fmt.Errorf("sim: iteration %d has empty stall span %+v", i, st)
			}
			switch st.Cause {
			case CauseSyncWait:
				per[it.Proc].sync += st.Cycles()
			case CauseWindowWait:
				per[it.Proc].window += st.Cycles()
			default:
				return fmt.Errorf("sim: iteration %d stall with cause %v", i, st.Cause)
			}
			attr += st.Cycles()
		}
		if tr.Length > 0 {
			gap := int(it.Rows[tr.Length-1]) - it.Start + 1 - tr.Length
			if attr != gap {
				return fmt.Errorf("sim: iteration %d attributes %d of %d non-issue cycles", i, attr, gap)
			}
		}
		total += attr
	}
	if total != tm.StallCycles {
		return fmt.Errorf("sim: attributed %d stall cycles, engine counted %d", total, tm.StallCycles)
	}
	for p := range per {
		drain := tm.Total - per[p].issued - per[p].sync - per[p].window
		if drain < 0 {
			return fmt.Errorf("sim: processor %d overcommitted: issued %d + sync %d + window %d > %d cycles",
				p, per[p].issued, per[p].sync, per[p].window, tm.Total)
		}
	}
	return nil
}

// SyncStallStat aggregates the wait-stall cycles charged to one
// synchronization pair.
type SyncStallStat struct {
	Signal string `json:"signal"`
	Dist   int    `json:"dist"`
	LBD    bool   `json:"lbd"`
	// Cycles is the total stalled cycles; Count the number of stall spans.
	Cycles int `json:"cycles"`
	Count  int `json:"count"`
}

// SyncStalls aggregates sync-wait spans by pair, hottest first.
func (tr *Tracer) SyncStalls() []SyncStallStat {
	type key struct {
		sig  string
		dist int
		lbd  bool
	}
	agg := map[key]*SyncStallStat{}
	for i := range tr.Iters {
		for _, st := range tr.Iters[i].Stalls {
			if st.Cause != CauseSyncWait {
				continue
			}
			k := key{st.Signal, st.Dist, st.LBD}
			s := agg[k]
			if s == nil {
				s = &SyncStallStat{Signal: st.Signal, Dist: st.Dist, LBD: st.LBD}
				agg[k] = s
			}
			s.Cycles += st.Cycles()
			s.Count++
		}
	}
	out := make([]SyncStallStat, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Cycles != out[b].Cycles {
			return out[a].Cycles > out[b].Cycles
		}
		if out[a].Signal != out[b].Signal {
			return out[a].Signal < out[b].Signal
		}
		return out[a].Dist < out[b].Dist
	})
	return out
}

// Utilize runs the recurrence engine with a tracer, verifies the
// attribution books, and returns the timing with the utilization report —
// the one-call form used by reports and the pipeline.
func Utilize(s *core.Schedule, opt Options) (Timing, *Utilization, error) {
	tr := &Tracer{}
	opt.Tracer = tr
	tm, err := Time(s, opt)
	if err != nil {
		return tm, nil, err
	}
	if err := tr.Check(tm); err != nil {
		return tm, nil, err
	}
	return tm, tr.Utilization(), nil
}
