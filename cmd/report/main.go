// Command report runs the entire evaluation — the Fig. 4 worked example,
// Tables 1–3 with both baselines, the §4.2 observations, the migration,
// window and unroll extension experiments — and emits a single markdown
// report. `go run ./cmd/report > REPORT.md` regenerates the committed
// artifact bit for bit (everything is seeded).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"doacross"
	"doacross/internal/core"
	"doacross/internal/hotbench"
	"doacross/internal/perfect"
	"doacross/internal/tables"
)

const fig1 = `
DO I = 1, N
  S1: B[I] = A[I-2] + E[I+1]
  S2: G[I-3] = A[I-1] * E[I+2]
  S3: A[I] = B[I] + C[I+3]
ENDDO
`

func main() {
	gapJSON := flag.String("gap-json", "", "also write the optimality-gap audit as JSON to this file (the committed BENCH_exact_gap.json snapshot)")
	kernels := flag.String("kernels", "testdata/kernels", "kernel corpus directory for the optimality-gap audit")
	hotpathJSON := flag.String("hotpath-json", "", "also run the hot-path benchmarks and write their snapshot as JSON to this file (the committed BENCH_hotpath.json snapshot)")
	hotpathOnly := flag.Bool("hotpath-only", false, "with -hotpath-json, skip the markdown report and emit only the benchmark snapshot")
	utilJSON := flag.String("machine-util-json", "", "also write the machine-utilization audit as JSON to this file (the committed BENCH_machine_util.json snapshot)")
	depJSON := flag.String("dep-precision-json", "", "also write the dependence-precision audit as JSON to this file (the committed BENCH_dep_precision.json snapshot)")
	trajectory := flag.String("trajectory", "", "append the current snapshot files (BENCH_hotpath.json, BENCH_exact_gap.json, BENCH_machine_util.json, BENCH_dep_precision.json, or the ones just written) as one entry of this consolidated trajectory artifact")
	flag.Parse()
	// The hot-path snapshot goes to its own file and stderr, never into the
	// markdown: benchmark numbers are machine-dependent, and the report
	// must regenerate bit for bit.
	if *hotpathJSON != "" {
		r := hotbench.Run()
		b, err := r.JSON()
		if err == nil {
			err = os.WriteFile(*hotpathJSON, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "report: wrote %s\n", *hotpathJSON)
		if *hotpathOnly {
			if err := appendTrajectory(*trajectory, *hotpathJSON, *gapJSON, *utilJSON, *depJSON); err != nil {
				fmt.Fprintln(os.Stderr, "report:", err)
				os.Exit(1)
			}
			return
		}
	}
	if err := run(*gapJSON, *utilJSON, *depJSON, *kernels); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
	if err := appendTrajectory(*trajectory, *hotpathJSON, *gapJSON, *utilJSON, *depJSON); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

// appendTrajectory merges the current snapshot files into the consolidated
// trajectory artifact (no-op when -trajectory is unset). Paths written this
// run take precedence; otherwise the committed snapshot names are read, and
// snapshots that do not exist are simply omitted from the entry.
func appendTrajectory(path, hotpathJSON, gapJSON, utilJSON, depJSON string) error {
	if path == "" {
		return nil
	}
	read := func(override, fallback string) []byte {
		name := override
		if name == "" {
			name = fallback
		}
		b, err := os.ReadFile(name)
		if err != nil {
			return nil
		}
		return b
	}
	t, err := hotbench.LoadTrajectory(path)
	if err != nil {
		return err
	}
	if err := t.Append(
		read(hotpathJSON, "BENCH_hotpath.json"),
		read(gapJSON, "BENCH_exact_gap.json"),
		read(utilJSON, "BENCH_machine_util.json"),
		read(depJSON, "BENCH_dep_precision.json"),
	); err != nil {
		return err
	}
	if err := t.Save(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "report: appended trajectory entry %d to %s\n", len(t.Entries), path)
	return nil
}

func run(gapJSON, utilJSON, depJSON, kernelDir string) error {
	fmt.Println("# Reproduction report")
	fmt.Println()
	fmt.Println("Generated by `go run ./cmd/report`. All numbers are deterministic.")
	fmt.Println()

	// Fig. 4 worked example.
	fmt.Println("## Worked example (paper Figs. 1-4)")
	fmt.Println()
	prog, err := doacross.Compile(fig1)
	if err != nil {
		return err
	}
	m := doacross.UniformMachine(4, 1)
	list, err := prog.ScheduleListProgramOrder(m)
	if err != nil {
		return err
	}
	syn, err := prog.ScheduleSync(m)
	if err != nil {
		return err
	}
	n := 100
	ta, tb := doacross.Simulate(list, n).Total, doacross.Simulate(syn, n).Total
	fmt.Printf("```\nlist scheduling: %d cycles (%d LBD pairs)\nnew  scheduling: %d cycles (%d LBD pairs)\nimprovement:     %.1f%%\n```\n\n",
		ta, list.NumLBD(), tb, syn.NumLBD(), doacross.Speedup(ta, tb))

	suites, err := perfect.Suites()
	if err != nil {
		return err
	}
	r, err := tables.RunOn(suites, core.CriticalPath)
	if err != nil {
		return err
	}
	fmt.Println("## Tables 1-3 (critical-path baseline)")
	fmt.Println()
	fmt.Println("```")
	fmt.Print(r.Render())
	fmt.Println("```")
	fmt.Println()
	spread, ok := r.Observation1()
	fmt.Printf("- Observation 1 (new scheduling ~flat across configurations): spread %.1f%%, holds: %v\n", 100*spread, ok)
	fmt.Printf("- Observation 2 (list scheduling slower at 4-issue): %v\n\n", r.Observation2())

	fmt.Println("## Migration extension (4-issue, #FU=1)")
	fmt.Println()
	for _, pri := range []core.ListPriority{core.ProgramOrder, core.CriticalPath} {
		name := map[core.ListPriority]string{core.ProgramOrder: "program-order", core.CriticalPath: "critical-path"}[pri]
		mr, err := tables.RunMigration(suites, doacross.Machine4Issue(1), pri)
		if err != nil {
			return err
		}
		fmt.Printf("Baseline: %s list scheduling\n\n```\n%s```\n\n", name, mr.Render())
	}

	fmt.Println("## Unroll extension (sync amortization, 2-issue #FU=1)")
	fmt.Println()
	chain := doacross.MustCompile("DO I = 1, N\nA[I] = A[I-1] + 1\nENDDO")
	elements := 96
	fmt.Println("| unroll factor | cycles/element |")
	fmt.Println("|---|---|")
	for _, k := range []int{1, 2, 4} {
		p := chain
		if k > 1 {
			if p, err = chain.Unroll(k); err != nil {
				return err
			}
		}
		s, err := p.ScheduleSync(doacross.Machine2Issue(1))
		if err != nil {
			return err
		}
		per := float64(doacross.Simulate(s, elements/k).Total) / float64(elements)
		fmt.Printf("| %d | %.2f |\n", k, per)
	}
	fmt.Println()

	fmt.Println("## Bounded signal hardware (window sweep)")
	fmt.Println()
	wprog := doacross.MustCompile("DO I = 1, N\nA[I] = E[I]\nB[I+2] = A[I-3] * F[I+1]\nENDDO")
	ws, err := wprog.ScheduleSync(doacross.Machine4Issue(2))
	if err != nil {
		return err
	}
	fmt.Println("| window | cycles (n=200) |")
	fmt.Println("|---|---|")
	for _, w := range []int{4, 8, 32, 0} {
		t, err := doacross.SimulateOptions(ws, doacross.SimOptions{Lo: 1, Hi: 200, Window: w})
		if err != nil {
			return err
		}
		label := fmt.Sprintf("%d", w)
		if w == 0 {
			label = "unbounded"
		}
		fmt.Printf("| %s | %d |\n", label, t.Total)
	}
	fmt.Println()

	fmt.Println("## Exact backend optimality gap (kernel corpus, paper machines)")
	fmt.Println()
	fmt.Println("Heuristic (never-degrades Best) vs the exact branch-and-bound backend,")
	fmt.Println("both predicting the paper's T = (n/d)(i-j)+l at n=100. `optimal` means")
	fmt.Println("the solver proved its schedule minimal; `bound` means the node budget ran")
	fmt.Println("out and only the proven lower bound is reported.")
	fmt.Println()
	loops, err := corpus(kernelDir)
	if err != nil {
		return err
	}
	gap, err := tables.RunGap(loops, tables.GapOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("```\n%s```\n\n", gap.Render())
	if gapJSON != "" {
		b, err := gap.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(gapJSON, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report: wrote %s\n", gapJSON)
	}

	fmt.Println("## Dependence-precision audit (kernel corpus, 4-issue #FU=2)")
	fmt.Println()
	fmt.Println("Every kernel is compiled twice — once with the precise dependence")
	fmt.Println("engine (GCD, bound separation, symbolic cancellation, Diophantine")
	fmt.Println("enumeration, each verdict carrying machine-checkable evidence) and once")
	fmt.Println("with the seed analyzer's syntactic matching (BaselineDeps). Both")
	fmt.Println("compilations are scheduled with the never-degrades heuristic, priced by")
	fmt.Println("the model and the recurrence simulator, and solved by the exact")
	fmt.Println("branch-and-bound backend; every schedule must pass the independent")
	fmt.Println("verifier, and the precise analysis must never be more conservative than")
	fmt.Println("the baseline — either violation aborts the report.")
	fmt.Println()
	dp, err := tables.RunDepPrecision(loops, tables.DepPrecisionOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("```\n%s```\n\n", dp.Render())
	if depJSON != "" {
		b, err := dp.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(depJSON, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report: wrote %s\n", depJSON)
	}

	fmt.Println("## Machine-level observability (kernel corpus, paper machines)")
	fmt.Println()
	fmt.Println("Every simulation below ran under the cycle-accurate execution tracer:")
	fmt.Println("each processor's cycles are attributed to issued work, Wait_Signal")
	fmt.Println("stalls (split LBD/LFD by arc kind), bounded-signal-window waits and")
	fmt.Println("pipeline drain, and the attribution is verified to cover 100% of every")
	fmt.Println("processor's cycles on every loop. Issue-slot efficiency counts filled")
	fmt.Println("slots against procs x cycles x width; empty slots on issuing cycles are")
	fmt.Println("classified statically (RAW on a named instruction, FU busy, issue-width")
	fmt.Println("exhausted, drain). All numbers are deterministic cycle counts.")
	fmt.Println()
	util, err := tables.RunUtil(loops, tables.UtilOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("```\n%s```\n\n", util.Render())
	if utilJSON != "" {
		b, err := util.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(utilJSON, b, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report: wrote %s\n", utilJSON)
	}

	fmt.Println("See EXPERIMENTS.md for the paper-vs-measured discussion.")
	return nil
}

// corpus parses the audit corpus: the Fig. 1 loop plus every kernel in the
// corpus directory, in name order.
func corpus(dir string) ([]tables.AuditLoop, error) {
	loops, err := tables.ParseLoops("fig1", fig1)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".loop") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		ls, err := tables.ParseLoops(strings.TrimSuffix(e.Name(), ".loop"), string(b))
		if err != nil {
			return nil, err
		}
		loops = append(loops, ls...)
	}
	return loops, nil
}
