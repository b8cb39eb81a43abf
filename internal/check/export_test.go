package check

import (
	"doacross/internal/core"
	"doacross/internal/diag"
	"doacross/internal/syncop"
)

// RedundantStates and RedundantWork expose the redundant-wait search's
// bounds.
const (
	RedundantStates = redundantStates
	RedundantWork   = redundantWork
)

// VerifyDeadlockFree and DeadlockCycle expose the deadlock check and its
// cycle search to the external tests, for schedules whose rows give each
// instruction's issue order within its cycle.
func VerifyDeadlockFree(s *core.Schedule) diag.List { return verifyDeadlockFree(s, RowPos(s)) }
func DeadlockCycle(s *core.Schedule) []int          { return deadlockCycle(s, RowPos(s)) }

// RowPos returns each instruction's issue order within its row.
func RowPos(s *core.Schedule) []int {
	rowPos := make([]int, len(s.Cycle))
	for _, row := range s.Rows {
		for k, v := range row {
			rowPos[v] = k
		}
	}
	return rowPos
}

// RedundantSearchCost runs LintSync's redundant-wait searches on sl and
// returns the most states one of them visited and the (state, wait) pairs
// they examined in all.
func RedundantSearchCost(sl *syncop.Loop) (peak, work int) {
	ops := syncOps(sl)
	for i := range ops {
		ops[i].src = sl.Base.StmtIndex(ops[i].signal)
	}
	var ws waitSearch
	ws.load(ops)
	for wi := range ws.waits {
		if ws.run(wi) >= 0 {
			ws.waits[wi].redundant = true
		}
		peak = max(peak, len(ws.states))
	}
	return peak, redundantWork - ws.work
}
