package sim

import (
	"fmt"
	"sync"

	"doacross/internal/core"
	"doacross/internal/tac"
)

// timeScratch is the pooled working state of both engines: the schedule's
// row/signal structure lowered to interned-signal CSR form (struct-of-arrays,
// no per-row slices or per-signal maps in the iteration loop), plus the
// recurrence engine's ring of recent iterations' issue times. Run reads the
// same lowering, window check and stall attribution, over its own table of
// issue times.
//
// The iteration loop walks EVENT rows only — rows containing a Wait or Send.
// Between events the issue recurrence is a straight run (issue[r] =
// issue[r-1]+1), so each run's contribution to the completion time is
// precomputed as max(r + rowLat[r]) and the per-iteration work is O(events),
// not O(schedule length). Time is the batch pipeline's per-request hot loop,
// so the state is pooled and every buffer grows once to the largest schedule
// seen.
type timeScratch struct {
	sigID   []int32 // tac.Sym -> signal id, -1: none yet
	sigName []string
	// Event rows (ascending) and per-event CSRs of waits (signal, distance)
	// and sends (signal).
	evRow    []int32
	waitOff  []int32
	waitSig  []int32
	waitDist []int
	sendOff  []int32
	sendSig  []int32
	// Per-signal: the send's row (for window validation) and event slot (for
	// ring reads). Per-consumer: the wait's row, distance and event slot.
	sendRow  []int32
	sendEv   []int32
	consOff  []int32
	consRow  []int32
	consDist []int
	consEv   []int32
	rowLat   []int
	// headMax is max(r + rowLat[r]) before the first event row (over the
	// whole schedule when there are no events); segMax[i] the same over the
	// rows strictly between event i and the next event (or the end).
	headMax int
	segMax  []int
	ring    []int
	maxDist int
	nwaits  int
	nsends  int
	// Steady-state detector state (see observe): the checkpoint window and
	// the per-iteration stall and completion since the checkpoint.
	chk      []int
	perStall []int
	perDone  []int
}

// maxPeriod bounds the steady-state period the detector looks for; a machine
// without a period this short is walked to the end.
const maxPeriod = 4096

const segEmpty = -1 << 30

var timePool = sync.Pool{New: func() any { return &timeScratch{} }}

func growIntBuf(buf *[]int, n int) []int {
	b := *buf
	if cap(b) < n {
		b = make([]int, n)
		*buf = b
	}
	return b[:n]
}

func growInt32Buf(buf *[]int32, n int) []int32 {
	b := *buf
	if cap(b) < n {
		b = make([]int32, n)
		*buf = b
	}
	return b[:n]
}

// intern numbers the program's signals in order of first use.
func (sc *timeScratch) intern(p *tac.Program, sig tac.Sym) {
	if sc.sigID[sig] < 0 {
		sc.sigID[sig] = int32(len(sc.sigName))
		sc.sigName = append(sc.sigName, p.Name(sig))
	}
}

// build lowers the schedule's synchronization structure into the scratch
// form. It refuses a wait at distance below 1 (it would wait on its own or a
// later iteration, which neither engine models) and a wait with no send.
func (sc *timeScratch) build(s *core.Schedule) error {
	L := s.Length()
	sc.sigID = growInt32Buf(&sc.sigID, max(len(s.Prog.Names), 1))
	for i := range sc.sigID {
		sc.sigID[i] = -1
	}
	sc.sigName = sc.sigName[:0]
	sc.evRow = sc.evRow[:0]
	sc.maxDist = 1
	rowLat := growIntBuf(&sc.rowLat, L)
	nw, ns := 0, 0
	for r, row := range s.Rows {
		rowLat[r] = 0
		sync := false
		for _, v := range row {
			in := &s.Prog.Instrs[v]
			if lat := s.Cfg.Latency[in.Class()]; lat > rowLat[r] {
				rowLat[r] = lat
			}
			switch in.Op {
			case tac.Wait:
				if in.SigDist < 1 {
					return fmt.Errorf("sim: wait on signal %s at distance %d (must be at least 1)", s.Prog.Name(in.Signal), in.SigDist)
				}
				sc.intern(s.Prog, in.Signal)
				sc.maxDist = max(sc.maxDist, int(in.SigDist))
				nw++
				sync = true
			case tac.Send:
				sc.intern(s.Prog, in.Signal)
				ns++
				sync = true
			}
		}
		if sync {
			sc.evRow = append(sc.evRow, int32(r))
		}
	}
	sc.nwaits, sc.nsends = nw, ns
	E := len(sc.evRow)
	nsig := len(sc.sigName)
	waitOff := growInt32Buf(&sc.waitOff, E+1)
	sendOff := growInt32Buf(&sc.sendOff, E+1)
	sendRow := growInt32Buf(&sc.sendRow, nsig)
	sendEv := growInt32Buf(&sc.sendEv, nsig)
	consCnt := growInt32Buf(&sc.consOff, nsig+1) // reused as counts first
	for i := range sendRow {
		sendRow[i] = -1
	}
	for i := range consCnt {
		consCnt[i] = 0
	}
	waitSig := growInt32Buf(&sc.waitSig, nw)
	waitDist := growIntBuf(&sc.waitDist, nw)
	sendSig := growInt32Buf(&sc.sendSig, ns)
	waitOff[0], sendOff[0] = 0, 0
	nw, ns = 0, 0
	for e, r32 := range sc.evRow {
		for _, v := range s.Rows[r32] {
			in := &s.Prog.Instrs[v]
			switch in.Op {
			case tac.Wait:
				id := sc.sigID[in.Signal]
				waitSig[nw] = id
				waitDist[nw] = int(in.SigDist)
				consCnt[id+1]++
				nw++
			case tac.Send:
				id := sc.sigID[in.Signal]
				sendSig[ns] = id
				sendRow[id] = r32
				sendEv[id] = int32(e)
				ns++
			}
		}
		waitOff[e+1] = int32(nw)
		sendOff[e+1] = int32(ns)
	}
	// Consumer CSR grouped by signal, in row order (waitSig is row-ordered).
	for i := 0; i < nsig; i++ {
		consCnt[i+1] += consCnt[i]
	}
	consRow := growInt32Buf(&sc.consRow, nw)
	consDist := growIntBuf(&sc.consDist, nw)
	consEv := growInt32Buf(&sc.consEv, nw)
	for e := 0; e < E; e++ {
		for k := waitOff[e]; k < waitOff[e+1]; k++ {
			id := waitSig[k]
			at := consCnt[id]
			consCnt[id]++
			consRow[at] = sc.evRow[e]
			consDist[at] = waitDist[k]
			consEv[at] = int32(e)
		}
	}
	// consCnt[id] now holds the end offset of id's consumers == start of
	// id+1's; shift back into offset form.
	for i := nsig; i > 0; i-- {
		consCnt[i] = consCnt[i-1]
	}
	consCnt[0] = 0
	// Every wait needs a send; the first without one, in row order, is
	// reported.
	for e := 0; e < E; e++ {
		for k := waitOff[e]; k < waitOff[e+1]; k++ {
			if sendRow[waitSig[k]] == -1 {
				return fmt.Errorf("sim: wait on signal %s with no send in schedule", sc.sigName[waitSig[k]])
			}
		}
	}
	// Straight-run completion offsets: headMax before the first event (the
	// whole schedule when E == 0), segMax[i] between event i and the next.
	sc.headMax = segEmpty
	first := L
	if E > 0 {
		first = int(sc.evRow[0])
	}
	for r := 0; r < first; r++ {
		if v := r + rowLat[r]; v > sc.headMax {
			sc.headMax = v
		}
	}
	segMax := growIntBuf(&sc.segMax, E)
	for i := 0; i < E; i++ {
		next := L
		if i+1 < E {
			next = int(sc.evRow[i+1])
		}
		segMax[i] = segEmpty
		for r := int(sc.evRow[i]) + 1; r < next; r++ {
			if v := r + rowLat[r]; v > segMax[i] {
				segMax[i] = v
			}
		}
	}
	return nil
}

// checkWindow validates a bounded signal window against the schedule: it
// must cover the largest dependence distance, and must not equal the
// distance of an LFD pair (whose send would wait for its own iteration's
// wait).
func (sc *timeScratch) checkWindow(window int) error {
	if window <= 0 {
		return nil
	}
	if window < sc.maxDist {
		return fmt.Errorf("sim: signal window %d smaller than the largest dependence distance %d (deadlock)", window, sc.maxDist)
	}
	for id := range sc.sigName {
		for k := sc.consOff[id]; k < sc.consOff[id+1]; k++ {
			if sc.consDist[k] == window && sc.sendRow[id] <= sc.consRow[k] {
				return fmt.Errorf("sim: signal window %d equals distance %d of an LFD pair on %s (send would wait for its own iteration's wait)", window, sc.consDist[k], sc.sigName[id])
			}
		}
	}
	return nil
}

// prepare is the prologue of both engines: it lowers s, checks the window
// and resets the tracer. empty reports a run with nothing to issue (no
// iteration or an empty schedule), whose zero Timing is already final.
func (sc *timeScratch) prepare(s *core.Schedule, opt Options) (empty bool, err error) {
	if err := sc.build(s); err != nil {
		return false, err
	}
	if err := sc.checkWindow(opt.Window); err != nil {
		return false, err
	}
	if opt.Tracer != nil {
		opt.Tracer.reset(s, opt)
	}
	return opt.N() == 0 || s.Length() == 0, nil
}

// steady describes where an untraced run left the walk for the closed form:
// iterations 0..K-1 were walked, and from then on every iteration repeats
// the one P earlier shifted by Delta cycles. P == 0 means every iteration
// was walked.
type steady struct{ K, P, Delta int }

// run is the recurrence model over scratch state; it produces timings
// bit-identical to the pre-scratch row-by-row implementation. Untraced runs
// stop walking once the machine reaches a steady state (see observe) and
// finish in closed form; traced runs walk every iteration.
func (sc *timeScratch) run(s *core.Schedule, opt Options) (Timing, steady, error) {
	if empty, err := sc.prepare(s, opt); err != nil || empty {
		return Timing{}, steady{}, err
	}
	L, n, tr := s.Length(), opt.N(), opt.Tracer
	var t Timing
	t.SignalsSent = n * sc.nsends
	procs := opt.procs()
	// Only the issue times of the last few iterations matter: back to the
	// largest wait distance below n (a wait reaching before the first
	// iteration is skipped, whatever its distance), the processor-reuse
	// distance, and the signal window. Keep a flat ring of that depth; each
	// iteration's ring row holds the issue time of every event row plus
	// (slot E) the last schedule row.
	depth := 1
	for _, d := range sc.waitDist[:sc.nwaits] {
		if d < n && d > depth {
			depth = d
		}
	}
	if procs < n && procs > depth {
		depth = procs
	}
	if opt.Window > depth {
		depth = opt.Window
	}
	E := len(sc.evRow)
	stride := E + 1
	ringSize := (depth + 1) * stride
	ring := growIntBuf(&sc.ring, ringSize)
	base := 0
	det := detector{off: tr != nil}
	for idx := 0; idx < n; idx++ {
		start := 0
		if idx >= procs {
			// Processor reuse: the previous iteration on this processor must
			// have issued its last row.
			pb := base - procs*stride
			if pb < 0 {
				pb += ringSize
			}
			start = ring[pb+E] + 1
		}
		if tr != nil {
			it := &tr.Iters[idx]
			it.Proc = idx % procs
			it.Start = start
		}
		stall := 0
		for e := 0; e < E; e++ {
			row := int(sc.evRow[e])
			// Chain-propagated earliest issue: a straight run since the
			// previous event (or the iteration start).
			var unconstrained int
			if e == 0 {
				unconstrained = start + row
			} else {
				unconstrained = ring[base+e-1] + row - int(sc.evRow[e-1])
			}
			earliest := unconstrained
			for k := sc.waitOff[e]; k < sc.waitOff[e+1]; k++ {
				dist := sc.waitDist[k]
				if idx-dist < 0 {
					continue // no earlier iteration to wait for
				}
				sb := base - dist*stride
				if sb < 0 {
					sb += ringSize
				}
				sendT := ring[sb+int(sc.sendEv[sc.waitSig[k]])]
				if sendT+1 > earliest {
					earliest = sendT + 1
				}
			}
			// Bounded signal window: iteration idx's send reuses the slot of
			// iteration idx-Window; every wait that consumes that old signal
			// must have issued first.
			if opt.Window > 0 && idx-opt.Window >= 0 {
				for k := sc.sendOff[e]; k < sc.sendOff[e+1]; k++ {
					id := sc.sendSig[k]
					for c := sc.consOff[id]; c < sc.consOff[id+1]; c++ {
						back := opt.Window - sc.consDist[c]
						if idx-back < 0 {
							continue
						}
						// back == 0 is the same iteration: the consumer row
						// precedes this row (validated by checkWindow) and its
						// issue time is already in this iteration's slots.
						cb := base - back*stride
						if cb < 0 {
							cb += ringSize
						}
						if ct := ring[cb+int(sc.consEv[c])]; ct+1 > earliest {
							earliest = ct + 1
						}
					}
				}
			}
			stall += earliest - unconstrained
			if tr != nil && earliest > unconstrained {
				sc.attributeStalls(&tr.Iters[idx], idx, e, row, unconstrained, earliest, opt, ring, base, stride, ringSize)
			}
			ring[base+e] = earliest
		}
		t.StallCycles += stall
		// Issue time of the last schedule row (straight run past the last
		// event), kept for processor reuse.
		last := start + L - 1
		if E > 0 {
			last = ring[base+E-1] + (L - 1 - int(sc.evRow[E-1]))
		}
		ring[base+E] = last
		// Completion horizon. dyn leaves out the head run's completion while
		// it is the constant headMax (start is 0 before processor reuse), so
		// that dyn shifts with the ring in steady state.
		done := 0
		for e := 0; e < E; e++ {
			row := int(sc.evRow[e])
			te := ring[base+e]
			if fin := te + sc.rowLat[row]; fin > done {
				done = fin
			}
			if sc.segMax[e] != segEmpty {
				if fin := te - row + sc.segMax[e]; fin > done {
					done = fin
				}
			}
		}
		dyn := done
		if sc.headMax != segEmpty {
			if fin := start + sc.headMax; fin > done {
				done = fin
				if idx >= procs {
					dyn = fin
				}
			}
		}
		if done > t.Total {
			t.Total = done
		}
		if tr != nil {
			// Reconstruct every row's issue time from the event ring: rows
			// between events are a straight run, one row per cycle.
			it := &tr.Iters[idx]
			it.Done = done
			t0, lastRow := start, 0
			for e := 0; e < E; e++ {
				er := int(sc.evRow[e])
				for r := lastRow; r < er; r++ {
					it.Rows[r] = int32(t0 + r - lastRow)
				}
				it.Rows[er] = int32(ring[base+e])
				t0, lastRow = ring[base+e]+1, er+1
			}
			for r := lastRow; r < L; r++ {
				it.Rows[r] = int32(t0 + r - lastRow)
			}
		}
		if !det.off && idx >= depth {
			// Event 0's issue was set by its constant start+row term (ties
			// count as set by it).
			constSet := E > 0 && ring[base] == start+int(sc.evRow[0])
			if p, delta, ok := sc.observe(&det, stall, dyn, constSet, procs < n, ring, base, stride, depth); ok {
				t.StallCycles, t.Total = sc.extrapolate(t.StallCycles, t.Total, n, idx, p, delta, procs >= n && E > 0)
				return t, steady{K: idx + 1, P: p, Delta: delta}, nil
			}
		}
		base += stride
		if base == ringSize {
			base = 0
		}
	}
	if tr != nil {
		tr.Timing = t
	}
	return t, steady{}, nil
}

// detector is the Brent cycle-detection state of one run: the current
// power-of-two search window, the iterations walked since the checkpoint,
// whether any of them had event 0 set by its constant term, and whether the
// run is not searching (traced, or gave up).
type detector struct {
	power, lam    int
	sawConst, off bool
}

// observe feeds one walked iteration (its index at least depth, so every
// guard of the recurrence is in steady mode) to the cycle detector: its
// stall, its shift-invariant completion dyn, and whether event 0 was set by
// its constant term. It reports a steady state: period p and shift delta
// such that every later iteration is the one p earlier plus delta cycles.
//
// The ring's last depth rows are the machine's whole state: the next
// iteration reads nothing older. Brent's method checkpoints that window, then compares
// each later window with it; a match means every slot equals the checkpoint
// plus one uniform delta. The recurrence is a max-plus system over the ring —
// each issue time is a max of ring slots plus constants — so a shifted state
// yields the same future shifted, provided no constant term takes part. The
// match at m = c + p is therefore exact when delta >= 0 and one of:
//
//   - procs < n: start is the processor's previous last-row issue plus one,
//     so every term of the recurrence reads the ring (homogeneous);
//   - delta == 0: the state repeats exactly, constants included;
//   - procs >= n: every iteration starts at cycle 0, so event 0's
//     unconstrained issue start+row is a constant. If in every iteration of
//     (c, m] a wait or window term reached at least that constant, then after
//     a shift by delta >= 0 it still does, event 0 stays homogeneous, and by
//     induction so does every later period. Its stall grows by delta per
//     period (extrapolate's growing term); the head run's completion stays the
//     constant headMax, already in the walked prefix's Total.
//
// Comparisons stop at the first mismatching slot, so the detector costs O(1)
// amortised per iteration; it gives up once the window passes maxPeriod.
func (sc *timeScratch) observe(det *detector, stall, dyn int, constSet, homogeneous bool, ring []int, base, stride, depth int) (p, delta int, ok bool) {
	if det.power == 0 {
		sc.checkpoint(det, 1, ring, base, stride, depth)
		return 0, 0, false
	}
	det.lam++
	sc.perStall[det.lam-1] = stall
	sc.perDone[det.lam-1] = dyn
	det.sawConst = det.sawConst || constSet
	if delta, ok := sc.matches(ring, base, stride, depth); ok && delta >= 0 &&
		(homogeneous || delta == 0 || !det.sawConst) {
		return det.lam, delta, true
	}
	if det.lam == det.power {
		if det.power >= maxPeriod {
			det.off = true
		} else {
			sc.checkpoint(det, 2*det.power, ring, base, stride, depth)
		}
	}
	return 0, 0, false
}

// checkpoint saves the ring's last depth rows (newest first) as the state
// later windows are compared with, and opens a search window of power
// iterations.
func (sc *timeScratch) checkpoint(det *detector, power int, ring []int, base, stride, depth int) {
	*det = detector{power: power}
	sc.perStall = growIntBuf(&sc.perStall, power)
	sc.perDone = growIntBuf(&sc.perDone, power)
	chk := growIntBuf(&sc.chk, depth*stride)
	for r := 0; r < depth; r++ {
		copy(chk[r*stride:(r+1)*stride], ring[base:base+stride])
		if base -= stride; base < 0 {
			base += len(ring)
		}
	}
}

// matches reports whether the ring's last depth rows equal the checkpoint
// plus one uniform shift, and that shift.
func (sc *timeScratch) matches(ring []int, base, stride, depth int) (delta int, ok bool) {
	delta = ring[base] - sc.chk[0]
	for r := 0; r < depth; r++ {
		want := sc.chk[r*stride : (r+1)*stride]
		for s, v := range ring[base : base+stride] {
			if v-want[s] != delta {
				return 0, false
			}
		}
		if base -= stride; base < 0 {
			base += len(ring)
		}
	}
	return delta, true
}

// extrapolate closes the run after a steady state was found at iteration m
// with period p and shift delta: each iteration i of the last period (walked,
// with stall perStall and shift-invariant completion perDone) recurs
// Q = (n-1-i)/p more times, each delta cycles later than the one before. When
// event 0's unconstrained issue is a constant (growing), its stall also grows
// by delta per recurrence, adding delta·Q(Q+1)/2.
func (sc *timeScratch) extrapolate(stalls, total, n, m, p, delta int, growing bool) (int, int) {
	for j := 0; j < p; j++ {
		q := (n - 1 - (m - p + 1 + j)) / p
		if q == 0 {
			continue
		}
		stalls += q * sc.perStall[j]
		if growing {
			stalls += delta * q * (q + 1) / 2
		}
		if d := sc.perDone[j] + q*delta; d > total {
			total = d
		}
	}
	return stalls, total
}

// attributeStalls serves both engines: at an event row that stalled
// (earliest > unconstrained), re-scan the same constraints in the same order
// to split [unconstrained, earliest) into the binding synchronization wait
// and the bounded-window gate. ring holds one row of stride slots per
// iteration, iteration idx's at base: Time's wrapping ring of size ringSize,
// or Run's n-row table, which never wraps. The constraints are monotone —
// once satisfiable they stay satisfiable — so the issue cycle is exactly
// their maximum and the spans partition the gap.
func (sc *timeScratch) attributeStalls(it *IterTrace, idx, e, row, unconstrained, earliest int, opt Options, ring []int, base, stride, ringSize int) {
	syncTo := unconstrained
	bind := int32(-1)
	for k := sc.waitOff[e]; k < sc.waitOff[e+1]; k++ {
		dist := sc.waitDist[k]
		if idx-dist < 0 {
			continue
		}
		sb := base - dist*stride
		if sb < 0 {
			sb += ringSize
		}
		if sendT := ring[sb+int(sc.sendEv[sc.waitSig[k]])]; sendT+1 > syncTo {
			syncTo = sendT + 1
			bind = k
		}
	}
	if syncTo > earliest {
		syncTo = earliest
	}
	if bind >= 0 && syncTo > unconstrained {
		id := sc.waitSig[bind]
		dist := sc.waitDist[bind]
		it.Stalls = append(it.Stalls, Stall{
			Row: row, From: unconstrained, To: syncTo, Cause: CauseSyncWait,
			Signal: sc.sigName[id], Dist: dist, SrcIter: idx - dist,
			SendCycle: syncTo - 1, LBD: int(sc.sendRow[id]) >= row,
		})
	}
	if earliest > syncTo {
		st := Stall{Row: row, From: syncTo, To: earliest, Cause: CauseWindowWait}
		if opt.Window > 0 && idx-opt.Window >= 0 {
			winTo := syncTo
			for k := sc.sendOff[e]; k < sc.sendOff[e+1]; k++ {
				id := sc.sendSig[k]
				for c := sc.consOff[id]; c < sc.consOff[id+1]; c++ {
					back := opt.Window - sc.consDist[c]
					if back == 0 || idx-back < 0 {
						continue
					}
					cb := base - back*stride
					if cb < 0 {
						cb += ringSize
					}
					if ct := ring[cb+int(sc.consEv[c])]; ct+1 > winTo {
						winTo = ct + 1
						st.Signal, st.Dist, st.SrcIter, st.SendCycle = sc.sigName[id], sc.consDist[c], idx-back, ct
					}
				}
			}
		}
		it.Stalls = append(it.Stalls, st)
	}
}
