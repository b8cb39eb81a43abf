package tables

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"doacross/internal/core"
	"doacross/internal/perfect"
	"doacross/internal/pipeline"
)

// TestFanOut: every task runs exactly once whatever the worker count, and
// the error returned is the lowest failing index's, not the first to fail
// in time.
func TestFanOut(t *testing.T) {
	const n = 200
	for _, workers := range []int{-1, 0, 1, 2, 7, n + 5} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			var runs [n]atomic.Int32
			err := fanOut(workers, n, func(i int) error {
				runs[i].Add(1)
				if i%50 == 17 {
					return fmt.Errorf("task %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "task 17" {
				t.Errorf("fanOut error = %v, want task 17's", err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("task %d ran %d times", i, got)
				}
			}
		})
	}
	if err := fanOut(4, 0, func(int) error { return errors.New("ran") }); err != nil {
		t.Errorf("fanOut over no tasks = %v", err)
	}
}

// TestTablesWorkerCountIndependent: the tables, the per-loop rows (register
// pressure included) and Table 1 are the same whether the post-processing
// runs on the caller alone or on several workers.
func TestTablesWorkerCountIndependent(t *testing.T) {
	serial := run(t)
	par, err := RunParallelWith(perfect.MustSuites(), core.CriticalPath, pipeline.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Failures) > 0 {
		t.Fatalf("parallel run failed: %v", par.Failures[0].Err)
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"Table1", par.Table1, serial.Table1},
		{"Table2", par.Table2, serial.Table2},
		{"Total2", par.Total2, serial.Total2},
		{"Table3", par.Table3, serial.Table3},
		{"Total3", par.Total3, serial.Total3},
		{"Loops", par.Loops, serial.Loops},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s differs between 3 workers and 1", c.name)
		}
	}
}
