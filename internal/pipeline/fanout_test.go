package pipeline

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestFanOut: every task runs exactly once whatever the worker count, and
// the error returned is the lowest failing index's, not the first to fail
// in time.
func TestFanOut(t *testing.T) {
	const n = 200
	for _, workers := range []int{-1, 0, 1, 2, 7, n + 5} {
		t.Run(fmt.Sprint(workers), func(t *testing.T) {
			var runs [n]atomic.Int32
			err := FanOut(workers, n, func(i int) error {
				runs[i].Add(1)
				if i%50 == 17 {
					return fmt.Errorf("task %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "task 17" {
				t.Errorf("FanOut error = %v, want task 17's", err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("task %d ran %d times", i, got)
				}
			}
		})
	}
	if err := FanOut(4, 0, func(int) error { return errors.New("ran") }); err != nil {
		t.Errorf("FanOut over no tasks = %v", err)
	}
}
