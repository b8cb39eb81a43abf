package cliutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doacross"
)

const loopA = `DO I = 1, N
S1: B[I] = A[I-2] + E[I+1]
S2: A[I] = B[I] + C[I+3]
ENDDO`

const loopB = `DO I = 1, N
S1: C[I] = C[I-1] + D[I]
ENDDO`

// TestReadInput: a path names a file, and "" or "-" reads standard input.
func TestReadInput(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "a.loop")
	if err := os.WriteFile(file, []byte(loopA), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadInput(file); err != nil || got != loopA {
		t.Errorf("ReadInput(file) = %q, %v", got, err)
	}
	if _, err := ReadInput(filepath.Join(dir, "missing.loop")); err == nil {
		t.Error("ReadInput of a missing file succeeded")
	}

	stdin := filepath.Join(dir, "stdin")
	if err := os.WriteFile(stdin, []byte(loopB), 0o644); err != nil {
		t.Fatal(err)
	}
	saved := os.Stdin
	defer func() { os.Stdin = saved }()
	for _, path := range []string{"-", ""} {
		f, err := os.Open(stdin)
		if err != nil {
			t.Fatal(err)
		}
		os.Stdin = f
		got, err := ReadInput(path)
		f.Close()
		if err != nil || got != loopB {
			t.Errorf("ReadInput(%q) = %q, %v; want standard input", path, got, err)
		}
	}
}

// TestScheduleSource: well-formed input is scheduled loop by loop; a
// malformed middle loop fails alone while the loops around it still run;
// a single malformed loop is the parse error.
func TestScheduleSource(t *testing.T) {
	opt := doacross.BatchOptions{Workers: 2}
	batch, err := ScheduleSource(loopA+"\n"+loopB+"\n", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Loops) != 2 || batch.FirstErr() != nil {
		t.Fatalf("%d loops, first error %v; want 2 clean", len(batch.Loops), batch.FirstErr())
	}

	bad := "DO I = 1, N\nS1: A[I] = = B[I]\nENDDO"
	batch, err = ScheduleSource(loopA+"\n"+bad+"\n"+loopB+"\n", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Loops) != 3 {
		t.Fatalf("%d loops, want 3", len(batch.Loops))
	}
	for i, lr := range batch.Loops {
		if failed := lr.Err != nil; failed != (i == 1) {
			t.Errorf("loop %d: error %v; want only the middle loop to fail", i, lr.Err)
		}
	}
	if lr := batch.Loops[2]; lr.Err == nil && len(lr.Machines) == 0 {
		t.Error("the loop after the malformed one was not scheduled")
	}

	if _, err := ScheduleSource(bad, opt); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("single malformed loop: error %v, want the positioned parse error", err)
	}

	// A loop resubmitted on its own is still positioned in the file: the
	// incomplete statement below is on line 9, after banded.loop's seven
	// lines and the malformed loop's header.
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "kernels", "banded.loop"))
	if err != nil {
		t.Fatal(err)
	}
	banded := string(b)
	batch, err = ScheduleSource(banded+"DO I = 1, N\nA[I] = B[I] +\nENDDO\n"+banded, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Loops) != 3 {
		t.Fatalf("%d loops, want 3", len(batch.Loops))
	}
	if err := batch.Loops[1].Err; err == nil || !strings.Contains(err.Error(), "line 9 col") {
		t.Errorf("malformed middle loop: error %v, want it on line 9 of the file", err)
	}
	if err := batch.Loops[2].Err; err != nil {
		t.Errorf("the second banded loop: %v", err)
	}
}
