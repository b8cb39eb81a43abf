package tables

import (
	"fmt"
	"strings"

	"doacross/internal/core"
	"doacross/internal/dlx"
	"doacross/internal/model"
	"doacross/internal/perfect"
	"doacross/internal/pipeline"
)

// MigRow is one benchmark's three-way comparison: traditional list
// scheduling, source-level synchronization migration followed by list
// scheduling, and the paper's instruction-level technique.
type MigRow struct {
	Name string
	// List, Mig and Sync are summed parallel times under one configuration.
	List, Mig, Sync int
	// MigPct and SyncPct are improvement percentages over List.
	MigPct, SyncPct float64
	// ConvertedByMig counts LBDs the migration removed across the suite.
	ConvertedByMig int
}

// MigrationResult is the extension experiment comparing the paper's
// technique against its own cited predecessor.
type MigrationResult struct {
	Config string
	Rows   []MigRow
	Total  MigRow
}

// RunMigration measures list vs migration+list vs new scheduling on all
// suites under one machine configuration, using the given list-scheduling
// priority for both list runs. Program-order priority respects the source
// placement migration produces; critical-path priority hoists waits and
// destroys it — comparing the two quantifies the paper's core thesis that
// source-level techniques are undone by synchronization-blind scheduling.
//
// Each loop runs through the batch pipeline twice at its suite's trip count,
// as written and with the migration pass, so every schedule is verified and
// the loops fan out over the pipeline's workers.
func RunMigration(suites []*perfect.Suite, cfg dlx.Config, baseline core.ListPriority) (*MigrationResult, error) {
	var reqs []pipeline.Request
	var suiteOf []int
	for si, s := range suites {
		for li, l := range s.Doacross() {
			reqs = append(reqs, pipeline.Request{
				Name: fmt.Sprintf("%s loop %d", s.Profile.Name, li),
				Loop: l.AST,
				N:    s.Profile.N,
			})
			suiteOf = append(suiteOf, si)
		}
	}
	opt := pipeline.Options{Machines: []dlx.Config{cfg}, Baseline: baseline}
	plain, err := audit(reqs, opt)
	if err != nil {
		return nil, err
	}
	opt.Compile.Migrate = true
	migrated, err := audit(reqs, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]MigRow, len(suites))
	for i, si := range suiteOf {
		p, m := &plain[i].Machines[0], &migrated[i].Machines[0]
		rows[si].List += p.ListTime
		rows[si].Sync += p.SyncTime
		rows[si].Mig += m.ListTime
		// LBDs the migration converted, counted as migrate.Migrate counts
		// its Before and After.
		_, before := plain[i].Analysis.CountLexical()
		_, after := migrated[i].Analysis.CountLexical()
		rows[si].ConvertedByMig += before - after
	}
	res := &MigrationResult{Config: cfg.Name}
	for si, s := range suites {
		row := rows[si]
		row.Name = s.Profile.Name
		row.MigPct = model.Speedup(row.List, row.Mig)
		row.SyncPct = model.Speedup(row.List, row.Sync)
		res.Rows = append(res.Rows, row)
		res.Total.List += row.List
		res.Total.Mig += row.Mig
		res.Total.Sync += row.Sync
		res.Total.ConvertedByMig += row.ConvertedByMig
	}
	res.Total.Name = "Total"
	res.Total.MigPct = model.Speedup(res.Total.List, res.Total.Mig)
	res.Total.SyncPct = model.Speedup(res.Total.List, res.Total.Sync)
	return res, nil
}

// Render formats the migration comparison.
func (r *MigrationResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension: migration vs. instruction scheduling (%s, 100 iterations)\n", r.Config)
	fmt.Fprintf(&sb, "%-10s %10s %10s %10s %10s %10s %8s\n",
		"Benchmark", "T_list", "T_mig", "T_new", "mig-gain", "new-gain", "LBD-fix")
	write := func(row MigRow) {
		fmt.Fprintf(&sb, "%-10s %10d %10d %10d %9.2f%% %9.2f%% %8d\n",
			row.Name, row.List, row.Mig, row.Sync, row.MigPct, row.SyncPct, row.ConvertedByMig)
	}
	for _, row := range r.Rows {
		write(row)
	}
	write(r.Total)
	return sb.String()
}
