package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// FanOut calls f(i) for every i in [0, n) on at most workers goroutines
// (GOMAXPROCS when workers <= 0) and returns once every call has. Indices
// are handed out in order, so callers put their longest tasks first. Every
// task runs even after one fails; the error returned is that of the lowest
// failing index, which does not depend on scheduling. LoadDisk and the
// paper tables' post-processing (internal/tables) fan out through it.
func FanOut(workers, n int, f func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstIdx = n
		first    error
	)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, first = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
