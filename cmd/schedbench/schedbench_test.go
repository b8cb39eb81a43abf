package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the report must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T, root string) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// testConfig runs a fixed, tiny amount of work with one client and one
// worker, so that the registry's counts repeat exactly from run to run.
func testConfig(t *testing.T, seed int64, traced bool) config {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: seed, traced: traced, root: root, procs: 1,
		hot: 24, samples: 8, replay: 32, ops: 3}
	if testing.Short() {
		cfg.hot, cfg.samples, cfg.replay, cfg.ops = 21, 2, 4, 1
	}
	return cfg
}

func run1(t *testing.T, name string, cfg config) *report {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	rep, err := measure(w, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d: %v", name, rep.Correct, rep.Attempted, rep.Failed, rep.problems)
	}
	return rep
}

func checkNames(t *testing.T, name string, rep *report, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", name, len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", name, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", name, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestWorkloads runs every workload untraced and traced at a tiny op count:
// every op and every re-derived sample must check out, and the metric names
// and units must be exactly those BENCHMARK.json declares.
func TestWorkloads(t *testing.T) {
	cfg := testConfig(t, 1, false)
	spec := loadSpec(t, cfg.root)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		name := sw.Name
		t.Run(name, func(t *testing.T) {
			rep := run1(t, name, testConfig(t, 1, false))
			checkNames(t, name, rep, spec.EndToEnd)
			for k, v := range rep.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, v.Value)
				}
			}
			traced := run1(t, name, testConfig(t, 1, true))
			checkNames(t, name, traced, spec.PerLayer)
			if name == "serve-warm" {
				if v := traced.Metrics["cache.hit_ratio"].Value; v != 1 {
					t.Errorf("serve-warm: cache.hit_ratio = %v, want 1", v)
				}
				if v := traced.Metrics["parse.calls_per_op"].Value; v != 0 {
					t.Errorf("serve-warm: parse.calls_per_op = %v, want 0", v)
				}
			}
		})
	}
}

// deterministic reports whether a per-layer metric is a count that a fixed
// amount of work must reproduce exactly.
func deterministic(name string) bool {
	return strings.HasSuffix(name, ".calls_per_op") ||
		name == "simulate.iterations_per_op" || name == "simulate.cycles_per_op"
}

// TestDeterministicCounts runs the seeded workloads twice with one seed and
// once with another: the counts must repeat exactly, and the served
// simulated time must depend on the seed.
func TestDeterministicCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("repeats whole workloads")
	}
	for _, name := range []string{"batch-longtrip", "serve-cold"} {
		t.Run(name, func(t *testing.T) {
			a := run1(t, name, testConfig(t, 7, true))
			b := run1(t, name, testConfig(t, 7, true))
			c := run1(t, name, testConfig(t, 8, true))
			for k, v := range a.Metrics {
				if deterministic(k) && b.Metrics[k].Value != v.Value {
					t.Errorf("%s: %s = %v then %v on the same seed", name, k, v.Value, b.Metrics[k].Value)
				}
			}
			if a.Metrics["simulate.cycles_per_op"] == c.Metrics["simulate.cycles_per_op"] {
				t.Errorf("%s: simulate.cycles_per_op does not depend on the seed", name)
			}
		})
	}
}
