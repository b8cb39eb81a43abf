package tables

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// depKernel loads one named kernel from the committed corpus.
func depKernel(t *testing.T, name string) []AuditLoop {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "kernels", name+".loop"))
	if err != nil {
		t.Fatalf("read kernel %s: %v", name, err)
	}
	ls, err := ParseLoops(name, string(b))
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// TestDepPrecisionAudit runs the baseline-vs-precise audit over a slice of
// the committed corpus and pins the refinements the new kernels were added
// to demonstrate: strictly fewer conservative verdicts corpus-wide, reduced
// synchronization on the symbolic-offset and bound-separation kernels, and
// exact-backend agreement on every row.
func TestDepPrecisionAudit(t *testing.T) {
	var loops []AuditLoop
	for _, name := range []string{"symoff", "fixedcell", "boundsep", "tridiag", "hydro"} {
		loops = append(loops, depKernel(t, name)...)
	}
	res, err := RunDepPrecision(loops, DepPrecisionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]DepPrecisionRow{}
	for _, row := range res.Rows {
		rows[row.Loop] = row
	}

	s := res.Summary
	if s.PreciseConservative >= s.BaselineConservative {
		t.Errorf("corpus conservative pairs did not strictly decrease: baseline %d, precise %d",
			s.BaselineConservative, s.PreciseConservative)
	}
	if s.Verified != 4*s.Loops {
		t.Errorf("verified %d schedules, want %d (4 per loop)", s.Verified, 4*s.Loops)
	}
	if s.ExactAgree != s.Loops {
		t.Errorf("exact backend agrees on %d/%d rows", s.ExactAgree, s.Loops)
	}

	if row := rows["symoff"]; !row.Refined || !row.ArcsReduced {
		t.Errorf("symoff: want refined with reduced sync arcs, got %+v", row)
	}
	if row := rows["fixedcell"]; !row.Refined {
		t.Errorf("fixedcell: want refined (same-element web proven exact), got %+v", row)
	}
	row := rows["boundsep"]
	if !row.Refined || !row.ArcsReduced {
		t.Errorf("boundsep: want refined with reduced sync arcs, got %+v", row)
	}
	if row.Precise.Sends != 0 || row.Precise.Waits != 0 {
		t.Errorf("boundsep: precise analysis should drop all synchronization, got %d+%d",
			row.Precise.Sends, row.Precise.Waits)
	}
	if row.N != 8 {
		t.Errorf("boundsep: constant-bound loop should be priced at its own trip 8, got n=%d", row.N)
	}
	if base := rows["tridiag"]; base.Refined {
		t.Errorf("tridiag: unit-stride recurrence was already exact in the baseline; must not count as refined: %+v", base)
	}

	// The audit is deterministic: a second run renders and marshals
	// identically (the committed snapshot must regenerate bit for bit).
	again, err := RunDepPrecision(loops, DepPrecisionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Render() != again.Render() {
		t.Error("audit render is not deterministic across runs")
	}
	j1, err1 := res.JSON()
	j2, err2 := again.JSON()
	if err1 != nil || err2 != nil {
		t.Fatalf("JSON: %v / %v", err1, err2)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("audit JSON is not deterministic across runs")
	}
}
