package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReportArtifacts regenerates the report and the three audit snapshots
// and compares each byte for byte with its committed copy at the repository
// root: REPORT.md, BENCH_exact_gap.json, BENCH_machine_util.json and
// BENCH_dep_precision.json.
func TestReportArtifacts(t *testing.T) {
	root := filepath.Join("..", "..")
	dir := t.TempDir()
	names := []string{"REPORT.md", "BENCH_exact_gap.json", "BENCH_machine_util.json", "BENCH_dep_precision.json"}
	out, err := os.Create(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	err = run(filepath.Join(dir, names[1]), filepath.Join(dir, names[2]), filepath.Join(dir, names[3]),
		filepath.Join(root, "testdata", "kernels"))
	os.Stdout = stdout
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		g, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		w, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from the committed copy from line %d", name, firstDiffLine(g, w))
		}
	}
}

// firstDiffLine returns the 1-based line on which a and b first differ.
func firstDiffLine(a, b []byte) int {
	line := 1
	for i := 0; i < len(a) && i < len(b) && a[i] == b[i]; i++ {
		if a[i] == '\n' {
			line++
		}
	}
	return line
}
