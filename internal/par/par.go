// Package par is the repo's one index fan-out: the harness grid's
// pending cells, batch iterations inside a cell and dataset shards all
// run through For.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n) on at most workers goroutines
// and returns once all calls have returned. Each index runs exactly
// once; callers keep results deterministic by having fn(i) write only
// into slot i of a pre-sized output, so nothing depends on completion
// order. workers <= 1 is a plain loop on the calling goroutine.
func For(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
