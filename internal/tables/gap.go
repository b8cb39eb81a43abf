package tables

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"doacross/internal/check"
	"doacross/internal/core"
	"doacross/internal/dep"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/exact"
	"doacross/internal/lang"
	"doacross/internal/model"
	"doacross/internal/syncop"
	"doacross/internal/tac"
)

// GapLoop is one compiled loop entering the optimality-gap audit.
type GapLoop struct {
	// Name labels the loop in rows and reports.
	Name string
	// Graph is its synchronization-augmented data-flow graph.
	Graph *dfg.Graph
}

// CompileGapLoops compiles every loop of a source file into audit inputs.
// Multi-loop files yield "<name>#k" entries.
func CompileGapLoops(name, src string) ([]GapLoop, error) {
	f, err := lang.ParseFile(src)
	if err != nil {
		return nil, fmt.Errorf("gap: %s: %w", name, err)
	}
	var out []GapLoop
	for i, l := range f.Loops {
		a := dep.Analyze(l)
		prog, err := tac.Generate(syncop.Insert(a, syncop.Options{}))
		if err != nil {
			return nil, fmt.Errorf("gap: %s: %w", name, err)
		}
		g, err := dfg.Build(prog, a)
		if err != nil {
			return nil, fmt.Errorf("gap: %s: %w", name, err)
		}
		label := name
		if len(f.Loops) > 1 {
			label = fmt.Sprintf("%s#%d", name, i+1)
		}
		out = append(out, GapLoop{Name: label, Graph: g})
	}
	return out, nil
}

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
// recording both predicted times and the solver's proven lower bound. Every
// exact schedule passes the independent verifier (internal/check) before it
// is reported; a rejected schedule fails the audit — by construction the
// solver and the verifier agree, so a rejection is a bug worth failing loud.
//
// Problems are independent, so they are audited concurrently; rows land at
// their precomputed loop-major index, keeping the output deterministic.
func RunGap(loops []GapLoop, opt GapOptions) (*GapResult, error) {
	n := opt.n()
	budget := opt.MaxNodes
	if budget == 0 {
		budget = exact.DefaultMaxNodes
	}
	configs := opt.configs()
	res := &GapResult{N: n, MaxNodes: budget}
	res.Rows = make([]GapRow, len(loops)*len(configs))
	err := fanOut(0, len(res.Rows), func(idx int) error {
		row, err := gapProblem(loops[idx/len(configs)], configs[idx%len(configs)], n, opt.MaxNodes)
		res.Rows[idx] = row
		return err
	})
	if err != nil {
		return nil, err
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

// gapProblem audits one (loop, machine shape) problem.
func gapProblem(gl GapLoop, cfg dlx.Config, n int, maxNodes int64) (GapRow, error) {
	h, err := core.Best(gl.Graph, cfg)
	if err != nil {
		return GapRow{}, fmt.Errorf("gap: %s on %s: heuristic: %w", gl.Name, cfg.Name, err)
	}
	r, err := exact.Schedule(gl.Graph, cfg, exact.Options{N: n, MaxNodes: maxNodes})
	if err != nil {
		return GapRow{}, fmt.Errorf("gap: %s on %s: exact: %w", gl.Name, cfg.Name, err)
	}
	if err := check.Err(check.Verify(r.Schedule)); err != nil {
		return GapRow{}, fmt.Errorf("gap: %s on %s: verifier rejected exact schedule: %w",
			gl.Name, cfg.Name, err)
	}
	row := GapRow{
		Loop: gl.Name, Config: cfg.Name,
		HeurT: model.Predict(h, n), ExactT: r.T,
		Bound: r.LowerBound, Optimal: r.Optimal,
		Nodes: r.Nodes, Note: r.Note,
	}
	if r.T > 0 {
		row.GapPct = 100 * float64(row.HeurT-row.ExactT) / float64(row.ExactT)
	}
	return row, nil
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

// SortRows orders rows by loop name then configuration name — for callers
// assembling rows from concurrently audited shards.
func (r *GapResult) SortRows() {
	sort.Slice(r.Rows, func(i, j int) bool {
		if r.Rows[i].Loop != r.Rows[j].Loop {
			return r.Rows[i].Loop < r.Rows[j].Loop
		}
		return r.Rows[i].Config < r.Rows[j].Config
	})
}
