package check_test

import (
	"doacross/internal/check"
	"doacross/internal/core"
	"doacross/internal/diag"
	"doacross/internal/tac"
)

// refSendFor is the linear send lookup tac.(*Program).SendFor replaced.
func refSendFor(p *tac.Program, signal string) *tac.Instr {
	for i := range p.Instrs {
		if in := &p.Instrs[i]; in.Op == tac.Send && p.Name(in.Signal) == signal {
			return in
		}
	}
	return nil
}

// refVerifyDeadlockFree is the deadlock check verifyDeadlockFree replaced,
// kept verbatim (but for the linear send lookup) as the reference its
// verdicts are held to. It checks cross-iteration deadlock freedom. Every
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
// Positive distances alone make every cycle positive, so organic schedules
// pass; a distance-0 or negative wait whose send sits at or after it is
// caught here.
func refVerifyDeadlockFree(s *core.Schedule, rowPos []int) diag.List {
	var out diag.List
	var syncs []int
	for v := range s.Prog.Instrs {
		if s.Prog.Instrs[v].IsSync() {
			syncs = append(syncs, v)
		}
	}
	if len(syncs) == 0 {
		return nil
	}
	idx := make([]int, len(s.Prog.Instrs)) // instruction -> position in syncs
	for i, v := range syncs {
		idx[v] = i
	}
	type arc struct {
		from, to, w int
	}
	var arcs []arc
	for i, v := range syncs {
		in := &s.Prog.Instrs[v]
		if in.Op == tac.Wait {
			send := refSendFor(s.Prog, s.Prog.Name(in.Signal))
			if send == nil {
				st := ""
				p := diag.Pos{}
				if s.Prog.Sync != nil && in.Stmt >= 0 && int(in.Stmt) < len(s.Prog.Sync.Base.Body) {
					stmt := s.Prog.Sync.Base.Body[in.Stmt]
					p, st = stmt.Pos(), stmt.Label
				}
				d := diag.Errorf(check.Stage, p, "deadlock: %s waits for a signal that is never sent", s.Prog.Format(in))
				if st != "" {
					d = d.WithStmt(st)
				}
				out = append(out, d)
				continue
			}
			to := 0
			if j := int(send.ID) - 1; j >= 0 && j < len(idx) {
				to = idx[j]
			}
			arcs = append(arcs, arc{from: i, to: to, w: int(in.SigDist)})
			// Same-iteration stall arcs into this wait.
			for j, x := range syncs {
				if x == v {
					continue
				}
				if s.Cycle[x] > s.Cycle[v] || (s.Cycle[x] == s.Cycle[v] && rowPos[x] > rowPos[v]) {
					arcs = append(arcs, arc{from: j, to: i, w: 0})
				}
			}
		}
	}
	if len(arcs) == 0 {
		return out
	}
	// Detect a cycle with total weight <= 0: scale weights by K = |arcs|+1
	// and subtract 1 per arc, then any such cycle (and only such a cycle)
	// is strictly negative; Bellman-Ford from an implicit all-zero source.
	k := len(arcs) + 1
	dist := make([]int, len(syncs))
	pred := make([]int, len(syncs))
	for i := range pred {
		pred[i] = -1
	}
	bad := -1
	for pass := 0; pass < len(syncs); pass++ {
		changed := false
		for _, a := range arcs {
			if w := dist[a.from] + a.w*k - 1; w < dist[a.to] {
				dist[a.to] = w
				pred[a.to] = a.from
				changed = true
				if pass == len(syncs)-1 {
					bad = a.to
				}
			}
		}
		if !changed {
			break
		}
	}
	if bad >= 0 {
		// Walk predecessors into the cycle and collect it for the report.
		v := bad
		for i := 0; i < len(syncs); i++ {
			v = pred[v]
		}
		var names []string
		start := v
		for {
			names = append(names, s.Prog.Format(&s.Prog.Instrs[syncs[v]]))
			v = pred[v]
			if v == start || len(names) > len(syncs) {
				break
			}
		}
		in := &s.Prog.Instrs[syncs[start]]
		p := diag.Pos{}
		st := ""
		if s.Prog.Sync != nil && in.Stmt >= 0 && int(in.Stmt) < len(s.Prog.Sync.Base.Body) {
			stmt := s.Prog.Sync.Base.Body[in.Stmt]
			p, st = stmt.Pos(), stmt.Label
		}
		d := diag.Errorf(check.Stage, p, "cross-iteration deadlock: wait-for cycle with non-positive total distance through %v", names)
		if st != "" {
			d = d.WithStmt(st)
		}
		out = append(out, d)
	}
	return out
}
