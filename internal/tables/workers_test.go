package tables

import (
	"reflect"
	"testing"

	"doacross/internal/core"
	"doacross/internal/perfect"
	"doacross/internal/pipeline"
)

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
