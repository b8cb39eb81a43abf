package tables

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"doacross/internal/core"
	"doacross/internal/dlx"
	"doacross/internal/passes"
	"doacross/internal/perfect"
	"doacross/internal/pipeline"
)

// TestAuditFailsLoud drives the audit runner into the two failures every
// audit must report instead of tabulating: a machine served by the degraded
// fallback, named with its loop, and a loop whose request failed.
func TestAuditFailsLoud(t *testing.T) {
	loops, err := ParseLoops("fig1", "DO I = 1, N\nS1: B[I] = A[I-2] + E[I+1]\nS3: A[I] = B[I] + C[I+3]\nENDDO")
	if err != nil {
		t.Fatal(err)
	}
	four, two := dlx.Standard(4, 1), dlx.Standard(2, 1)
	// Machines run in order within a request, so the second check probe is
	// the 2-issue machine's.
	var checks atomic.Int32
	_, err = audit(requests(loops), pipeline.Options{
		Machines: []dlx.Config{four, two},
		FaultHook: func(stage, name string) error {
			if stage == pipeline.StageVerify && checks.Add(1) == 2 {
				return errors.New("injected check failure")
			}
			return nil
		},
	})
	if err == nil || !strings.Contains(err.Error(), "fig1 on "+two.Name) {
		t.Errorf("check fault on %s: got %v, want an error naming fig1 on %s", two.Name, err, two.Name)
	}

	guarded, err := ParseLoops("guarded", "DO I = 1, N\nS1: A[I] = A[I-1] + 1\nS2: IF (E[I] > 0) B[I] = A[I]\nENDDO")
	if err != nil {
		t.Fatal(err)
	}
	_, err = audit(requests(guarded), pipeline.Options{Compile: passes.Options{NoIfConvert: true}})
	if err == nil || !strings.Contains(err.Error(), "guarded") {
		t.Errorf("guarded loop without if-conversion: got %v, want an error naming the loop", err)
	}
}

// TestAuditWorkerCountIndependent: the audits that fan out over the
// pipeline's GOMAXPROCS workers produce the same rows on one worker as on
// the current count (run it under -cpu 1,2,4).
func TestAuditWorkerCountIndependent(t *testing.T) {
	var loops []AuditLoop
	for _, name := range []string{"symoff", "boundsep", "hydro"} {
		loops = append(loops, depKernel(t, name)...)
	}
	suites := perfect.MustSuites()
	cfg := dlx.Standard(4, 1)
	audits := func() (*DepPrecisionResult, *MigrationResult) {
		dp, err := RunDepPrecision(loops, DepPrecisionOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mig, err := RunMigration(suites, cfg, core.ProgramOrder)
		if err != nil {
			t.Fatal(err)
		}
		return dp, mig
	}
	dp, mig := audits()
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	dp1, mig1 := audits()
	if !reflect.DeepEqual(dp, dp1) {
		t.Errorf("dependence-precision audit differs between %d workers and 1", procs)
	}
	if !reflect.DeepEqual(mig, mig1) {
		t.Errorf("migration experiment differs between %d workers and 1", procs)
	}
}
