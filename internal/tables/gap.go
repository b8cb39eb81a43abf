package tables

import (
	"encoding/json"
	"fmt"
	"strings"

	"doacross/internal/dlx"
	"doacross/internal/exact"
	"doacross/internal/model"
	"doacross/internal/passes"
	"doacross/internal/pipeline"
)

// GapOptions configures the audit.
type GapOptions struct {
	// N is the objective's trip count (0 = 100, the paper's).
	N int
	// MaxNodes is the exact solver's node budget per (loop, machine)
	// problem (0 = exact.DefaultMaxNodes, negative = unlimited).
	MaxNodes int64
	// Configs are the machine shapes to audit (nil = the paper's four).
	Configs []dlx.Config
}

func (o GapOptions) n() int {
	if o.N > 0 {
		return o.N
	}
	return 100
}

func (o GapOptions) configs() []dlx.Config {
	if len(o.Configs) > 0 {
		return o.Configs
	}
	return dlx.PaperConfigs()
}

// GapRow is one (loop, machine shape) measurement: the heuristic's predicted
// parallel time against the exact solver's, and the solver's proven lower
// bound on any schedule's time.
type GapRow struct {
	Loop   string `json:"loop"`
	Config string `json:"config"`
	// HeurT is the best heuristic's T = (n/d)(i-j)+l (core.Best: the
	// paper's scheduler vs both list baselines, never-degrades).
	HeurT int `json:"heur_t"`
	// ExactT is the exact backend's best T within budget.
	ExactT int `json:"exact_t"`
	// Bound is the proven lower bound (== ExactT when Optimal).
	Bound int `json:"bound"`
	// Optimal reports that ExactT was proven minimal within the budget.
	Optimal bool `json:"optimal"`
	// Nodes counts branch-and-bound nodes expanded.
	Nodes int64 `json:"nodes"`
	// GapPct is 100·(HeurT−ExactT)/ExactT — how far the heuristic is above
	// the exact schedule.
	GapPct float64 `json:"gap_pct"`
	// Note carries the solver's diagnostic ("" when optimal).
	Note string `json:"note,omitempty"`
}

// GapConfigSummary aggregates one machine shape's rows.
type GapConfigSummary struct {
	Config string `json:"config"`
	// Loops is the number of audited loops; Proven of them were solved to
	// proven optimality within budget.
	Loops  int `json:"loops"`
	Proven int `json:"proven"`
	// MeanGapPct and MaxGapPct summarize the heuristic's optimality gap
	// over the proven rows.
	MeanGapPct float64 `json:"mean_gap_pct"`
	MaxGapPct  float64 `json:"max_gap_pct"`
	// Tight counts proven rows where the heuristic already matched the
	// optimum (gap 0).
	Tight int `json:"tight"`
}

// GapResult is the corpus-wide audit outcome.
type GapResult struct {
	// N and MaxNodes echo the options the audit ran with.
	N        int   `json:"n"`
	MaxNodes int64 `json:"max_nodes"`
	// Rows are the measurements, ordered loop-major in input order, then by
	// machine shape.
	Rows []GapRow `json:"rows"`
	// Summaries aggregates per machine shape, in configuration order.
	Summaries []GapConfigSummary `json:"summaries"`
}

// RunGap audits the heuristic's optimality gap over the given loops on the
// given machine shapes: for each (loop, shape) it builds the never-degrades
// heuristic schedule (core.Best) and runs the exact branch-and-bound solver,
// recording both predicted times and the solver's proven lower bound. The
// batch pipeline schedules, verifies and simulates every problem, so every
// schedule passes the independent verifier (internal/check) before it is
// reported; a rejected schedule fails the audit — by construction the
// solver and the verifier agree, so a rejection is a bug worth failing loud.
func RunGap(loops []AuditLoop, opt GapOptions) (*GapResult, error) {
	n := opt.n()
	budget := opt.MaxNodes
	if budget == 0 {
		budget = exact.DefaultMaxNodes
	}
	configs := opt.configs()
	results, err := audit(requests(loops), pipeline.Options{
		Machines: configs, N: n, Best: true,
		Compile: passes.Options{Backend: "exact", Exact: exact.Options{MaxNodes: opt.MaxNodes}},
	})
	if err != nil {
		return nil, err
	}
	res := &GapResult{N: n, MaxNodes: budget}
	for _, lr := range results {
		for _, mr := range lr.Machines {
			row := GapRow{
				Loop: lr.Name, Config: mr.Machine,
				HeurT: model.Predict(mr.Best, n), ExactT: mr.PredictedT,
				Bound: mr.LowerBound, Optimal: mr.Optimal,
				Nodes: mr.SearchNodes, Note: mr.BackendNote,
			}
			if row.ExactT > 0 {
				row.GapPct = 100 * float64(row.HeurT-row.ExactT) / float64(row.ExactT)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	for _, cfg := range configs {
		s := GapConfigSummary{Config: cfg.Name}
		for _, row := range res.Rows {
			if row.Config != cfg.Name {
				continue
			}
			s.Loops++
			if row.Optimal {
				s.Proven++
				s.MeanGapPct += row.GapPct
				if row.GapPct > s.MaxGapPct {
					s.MaxGapPct = row.GapPct
				}
				if row.HeurT == row.ExactT {
					s.Tight++
				}
			}
		}
		if s.Proven > 0 {
			s.MeanGapPct /= float64(s.Proven)
		}
		res.Summaries = append(res.Summaries, s)
	}
	return res, nil
}

// Render formats the audit as a fixed-width gap table plus the per-machine
// summary, deterministic for golden tests.
func (r *GapResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Optimality gap: heuristic vs exact T = (n/d)(i-j)+l at n=%d (budget %d nodes)\n", r.N, r.MaxNodes)
	fmt.Fprintf(&sb, "%-16s %-16s %8s %8s %8s %7s %8s\n",
		"loop", "config", "heurT", "exactT", "bound", "gap%", "proof")
	for _, row := range r.Rows {
		proof := "optimal"
		if !row.Optimal {
			proof = "bound"
		}
		fmt.Fprintf(&sb, "%-16s %-16s %8d %8d %8d %6.1f%% %8s\n",
			row.Loop, row.Config, row.HeurT, row.ExactT, row.Bound, row.GapPct, proof)
	}
	sb.WriteString("\nPer machine shape:\n")
	for _, s := range r.Summaries {
		fmt.Fprintf(&sb, "  %-16s %d/%d proven optimal, mean gap %.1f%%, max gap %.1f%%, heuristic tight on %d\n",
			s.Config, s.Proven, s.Loops, s.MeanGapPct, s.MaxGapPct, s.Tight)
	}
	return sb.String()
}

// JSON renders the audit as stable, indented JSON (the committed
// BENCH_exact_gap.json snapshot).
func (r *GapResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
