package tables

import (
	"encoding/json"
	"fmt"
	"strings"

	"doacross/internal/core"
	"doacross/internal/dlx"
	"doacross/internal/passes"
	"doacross/internal/pipeline"
)

// Machine-utilization audit: every kernel loop is scheduled (list baseline
// and the paper's never-degrades scheduler), traced through the machine-
// level tracer and rendered as a stall-cause breakdown. sim.Utilize
// verifies the attribution books of every traced run — attributed stall
// causes plus issued cycles must cover 100% of every processor's cycles —
// so running the audit over the full kernel × paper-machine corpus is also
// the exhaustiveness proof of the tracer.

// UtilOptions configures the audit.
type UtilOptions struct {
	// N is the simulated trip count (0 = 100, the paper's).
	N int
	// Configs are the machine shapes to audit (nil = the paper's four).
	Configs []dlx.Config
}

func (o UtilOptions) n() int {
	if o.N > 0 {
		return o.N
	}
	return 100
}

func (o UtilOptions) configs() []dlx.Config {
	if len(o.Configs) > 0 {
		return o.Configs
	}
	return dlx.PaperConfigs()
}

// UtilRow is one (loop, machine shape) measurement: the traced simulation
// of the served (synchronization-aware) schedule, with the list baseline's
// totals alongside for contrast. The cycle split partitions every
// processor's cycles exactly: Issued+SyncWait+WindowWait+Drain =
// Procs×Cycles.
type UtilRow struct {
	Loop   string `json:"loop"`
	Config string `json:"config"`
	// ListCycles and SyncCycles are the simulated makespans.
	ListCycles int `json:"list_cycles"`
	SyncCycles int `json:"sync_cycles"`
	// ListEff and SyncEff are the issue-slot efficiencies (slots filled /
	// slots offered).
	ListEff float64 `json:"list_eff"`
	SyncEff float64 `json:"sync_eff"`
	// Cycle-level stall attribution of the sync schedule's run.
	Issued     int `json:"issued_cycles"`
	SyncWait   int `json:"sync_wait_cycles"`
	WindowWait int `json:"window_wait_cycles,omitempty"`
	Drain      int `json:"drain_cycles"`
	// Static empty-slot causes on the sync schedule's issued rows.
	EmptyRAW    int `json:"empty_raw"`
	EmptyFUBusy int `json:"empty_fu_busy"`
	EmptyWidth  int `json:"empty_issue_width"`
	EmptyDrain  int `json:"empty_drain"`
	// LBD/LFD split of the wait-stall cycles plus signal traffic.
	LBDWait int `json:"lbd_wait_cycles"`
	LFDWait int `json:"lfd_wait_cycles"`
	Signals int `json:"signals_sent"`
}

// UtilConfigSummary aggregates one machine shape's rows.
type UtilConfigSummary struct {
	Config string `json:"config"`
	Loops  int    `json:"loops"`
	// MeanListEff and MeanSyncEff average the issue-slot efficiencies.
	MeanListEff float64 `json:"mean_list_eff"`
	MeanSyncEff float64 `json:"mean_sync_eff"`
	// Cycle totals over all rows of the shape (sync schedules).
	Issued     int64 `json:"issued_cycles"`
	SyncWait   int64 `json:"sync_wait_cycles"`
	WindowWait int64 `json:"window_wait_cycles"`
	Drain      int64 `json:"drain_cycles"`
}

// UtilResult is the corpus-wide audit outcome (the committed
// BENCH_machine_util.json snapshot).
type UtilResult struct {
	// N echoes the trip count the audit simulated with.
	N int `json:"n"`
	// Rows are the measurements, loop-major in input order, then by shape.
	Rows []UtilRow `json:"rows"`
	// Summaries aggregates per machine shape, in configuration order.
	Summaries []UtilConfigSummary `json:"summaries"`
}

// RunUtil traces every (loop, machine shape) problem: the list baseline
// (critical path) and the paper's never-degrades scheduler are both
// simulated under the machine-level tracer, whose attribution books are
// verified to cover every cycle of every processor before a row is
// reported. The batch pipeline schedules, verifies and traces every
// problem; rows are loop-major in input order, then by shape.
func RunUtil(loops []AuditLoop, opt UtilOptions) (*UtilResult, error) {
	n := opt.n()
	configs := opt.configs()
	results, err := audit(requests(loops), pipeline.Options{
		Machines: configs, N: n, Baseline: core.CriticalPath, Utilization: true,
		Compile: passes.Options{Backend: "best"},
	})
	if err != nil {
		return nil, err
	}
	res := &UtilResult{N: n}
	for _, lr := range results {
		for _, mr := range lr.Machines {
			lu, su := mr.ListUtil, mr.SyncUtil
			res.Rows = append(res.Rows, UtilRow{
				Loop: lr.Name, Config: mr.Machine,
				ListCycles: lu.Cycles, SyncCycles: su.Cycles,
				ListEff: lu.SlotEfficiency, SyncEff: su.SlotEfficiency,
				Issued: su.IssuedCycles, SyncWait: su.SyncWaitCycles,
				WindowWait: su.WindowWaitCycles, Drain: su.DrainCycles,
				EmptyRAW: su.EmptyRAW, EmptyFUBusy: su.EmptyFUBusy,
				EmptyWidth: su.EmptyWidth, EmptyDrain: su.EmptyDrain,
				LBDWait: su.LBDWaitCycles, LFDWait: su.LFDWaitCycles,
				Signals: su.SignalsSent,
			})
		}
	}
	for _, cfg := range configs {
		s := UtilConfigSummary{Config: cfg.Name}
		for _, row := range res.Rows {
			if row.Config != cfg.Name {
				continue
			}
			s.Loops++
			s.MeanListEff += row.ListEff
			s.MeanSyncEff += row.SyncEff
			s.Issued += int64(row.Issued)
			s.SyncWait += int64(row.SyncWait)
			s.WindowWait += int64(row.WindowWait)
			s.Drain += int64(row.Drain)
		}
		if s.Loops > 0 {
			s.MeanListEff /= float64(s.Loops)
			s.MeanSyncEff /= float64(s.Loops)
		}
		res.Summaries = append(res.Summaries, s)
	}
	return res, nil
}

// Render formats the audit as a fixed-width machine-observability table,
// deterministic for golden tests.
func (r *UtilResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Machine utilization: stall-cause attribution at n=%d (sync schedule)\n", r.N)
	fmt.Fprintf(&sb, "%-16s %-16s %7s %7s %7s %8s %8s %8s %8s\n",
		"loop", "config", "cycles", "listEff", "syncEff", "issued", "syncwait", "window", "drain")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-16s %-16s %7d %6.1f%% %6.1f%% %8d %8d %8d %8d\n",
			row.Loop, row.Config, row.SyncCycles,
			100*row.ListEff, 100*row.SyncEff,
			row.Issued, row.SyncWait, row.WindowWait, row.Drain)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-16s %5s %9s %9s %10s %10s %10s %10s\n",
		"config", "loops", "listEff", "syncEff", "issued", "syncwait", "window", "drain")
	for _, s := range r.Summaries {
		fmt.Fprintf(&sb, "%-16s %5d %8.1f%% %8.1f%% %10d %10d %10d %10d\n",
			s.Config, s.Loops, 100*s.MeanListEff, 100*s.MeanSyncEff,
			s.Issued, s.SyncWait, s.WindowWait, s.Drain)
	}
	return sb.String()
}

// JSON renders the audit as stable, indented JSON (the committed
// BENCH_machine_util.json snapshot).
func (r *UtilResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
