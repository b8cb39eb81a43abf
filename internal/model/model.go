// Package model implements the paper's analytic timing model (§2):
//
//   - an LFD loop (every Send_Signal issued before its partner Wait_Signal)
//     executes in parallel in the time of one iteration: T = l;
//   - an LBD loop costs T = (n/d)·(i−j) + l, where i and j are the positions
//     of the Send and Wait, d the dependence distance, n the trip count and
//     l the length of one scheduled iteration.
//
// The package predicts parallel execution time directly from a schedule's
// pair spans, which the simulator-vs-model tests use to validate both sides.
package model

import (
	"doacross/internal/core"
)

// LFDTime is the parallel execution time of an LFD loop: one iteration.
func LFDTime(l int) int { return l }

// LBDTime is the paper's LBD loop theorem: (n/d)·(i−j) + l.
func LBDTime(n, d, i, j, l int) int {
	if n <= 0 {
		return 0
	}
	span := i - j
	if span < 0 {
		span = 0
	}
	return n/d*span + l
}

// Predict estimates the parallel execution time of n iterations of a
// schedule on n processors from its synchronization-pair spans.
//
// Each LBD pair (wait at cycle j, send at cycle i, distance d) forms an
// iteration recurrence: iteration k's wait row cannot issue until iteration
// k−d's send has issued and become visible, so consecutive chain links are
// (i−j+1) cycles apart. The chain ending at iteration n has ⌊(n−1)/d⌋ links,
// and the final iteration still needs its full length l after the chain
// delivers its send offset, giving T = ⌊(n−1)/d⌋·(i−j+1) + l — the dynamic
// refinement of the paper's (n/d)·(i−j) + l.
//
// The prediction is exact for schedules with a single dominant LBD pair and
// a lower bound when several pairs interact (the simulator then reports the
// true value; tests check Predict(s, n) <= simulated).
func Predict(s *core.Schedule, n int) int {
	if n <= 0 {
		return 0
	}
	return s.ChainBound(n)
}

// Slope returns the asymptotic cycles-per-iteration growth of the schedule's
// parallel time: max over LBD pairs of (span+1)/d, 0 for LFD-only schedules.
func Slope(s *core.Schedule) float64 {
	return s.MaxLBDStall()
}

// Speedup returns the improvement percentage the paper's Table 3 reports:
// 100·(Ta − Tb)/Ta for baseline time Ta and new-schedule time Tb.
func Speedup(ta, tb int) float64 {
	if ta == 0 {
		return 0
	}
	return 100 * float64(ta-tb) / float64(ta)
}
