package sim

import (
	"fmt"
	"io"

	"doacross/internal/obs"
)

// trackStride spaces the per-processor track IDs in the machine timeline:
// each processor owns a block of trackStride thread IDs — the issue track
// first, then one track per function-unit class.
const trackStride = 16

// Events renders the machine trace as Chrome trace_event entries under the
// given pid, one process group per traced loop: a per-processor issue track
// carrying iteration spans with their attributed stall spans nested inside
// (each wait annotated with its sync arc and sender iteration), and one
// track per processor × FU class carrying the instruction occupancy
// (1 cycle = 1 µs). The result merges into the service span timeline via
// obs.WriteChromeTraceMerged, so service spans and machine cycles appear in
// one Perfetto view.
func (tr *Tracer) Events(pid uint64) []obs.Event {
	s := tr.sched
	if s == nil {
		return nil
	}
	label := tr.Loop
	if label == "" {
		label = "loop"
	}
	evs := []obs.Event{{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": fmt.Sprintf("machine %s on %s", label, s.Cfg.Name)},
	}}
	named := map[uint64]bool{}
	threadName := func(tid uint64, name string) {
		if !named[tid] {
			named[tid] = true
			evs = append(evs, obs.Event{
				Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": name},
			})
		}
	}
	for i := range tr.Iters {
		it := &tr.Iters[i]
		if it.Proc < 0 {
			continue
		}
		issueTID := uint64(it.Proc)*trackStride + 1
		threadName(issueTID, fmt.Sprintf("P%d issue", it.Proc))
		evs = append(evs, obs.Event{
			Name: fmt.Sprintf("iter %d", tr.Lo+it.Index),
			Cat:  "iteration", Ph: "X", PID: pid, TID: issueTID,
			TS: float64(it.Start), Dur: float64(it.Done + 1 - it.Start),
			Args: map[string]any{"iteration": tr.Lo + it.Index, "proc": it.Proc},
		})
		for _, st := range it.Stalls {
			args := map[string]any{"row": st.Row, "cause": st.Cause.String()}
			var nm string
			switch st.Cause {
			case CauseSyncWait:
				arc := "LFD"
				if st.LBD {
					arc = "LBD"
				}
				nm = fmt.Sprintf("wait %s d=%d <- iter %d", st.Signal, st.Dist, tr.Lo+st.SrcIter)
				args["signal"] = st.Signal
				args["distance"] = st.Dist
				args["src_iter"] = tr.Lo + st.SrcIter
				args["send_cycle"] = st.SendCycle
				args["arc"] = arc
			case CauseWindowWait:
				nm = "window"
				if st.Signal != "" {
					nm = fmt.Sprintf("window %s <- iter %d", st.Signal, tr.Lo+st.SrcIter)
					args["signal"] = st.Signal
					args["distance"] = st.Dist
					args["src_iter"] = tr.Lo + st.SrcIter
				}
			default:
				nm = st.Cause.String()
			}
			evs = append(evs, obs.Event{
				Name: nm, Cat: "stall", Ph: "X", PID: pid, TID: issueTID,
				TS: float64(st.From), Dur: float64(st.Cycles()), Args: args,
			})
		}
		for v := range s.Cycle {
			in := &s.Prog.Instrs[v]
			cls := in.Class()
			tid := uint64(it.Proc)*trackStride + 2 + uint64(cls)
			threadName(tid, fmt.Sprintf("P%d %s", it.Proc, cls))
			lat := s.Cfg.Latency[cls]
			if lat < 1 {
				lat = 1
			}
			evs = append(evs, obs.Event{
				Name: fmt.Sprintf("#%d %s", in.ID, s.Prog.Format(in)),
				Cat:  "instr", Ph: "X", PID: pid, TID: tid,
				TS: float64(it.Rows[s.Cycle[v]]), Dur: float64(lat),
				Args: map[string]any{"iteration": tr.Lo + it.Index, "row": s.Cycle[v]},
			})
		}
	}
	return evs
}

// WriteChromeTrace writes the machine timeline alone as a loadable
// Perfetto/chrome://tracing file.
func (tr *Tracer) WriteChromeTrace(w io.Writer) error {
	return obs.WriteEvents(w, tr.Events(2))
}
