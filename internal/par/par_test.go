package par

import (
	"sync/atomic"
	"testing"
)

func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 16, 64} {
		for _, n := range []int{0, 1, 37} {
			counts := make([]atomic.Int64, n)
			For(workers, n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestForSequentialStaysOnCaller: with one worker the calls run in
// index order on the calling goroutine.
func TestForSequentialStaysOnCaller(t *testing.T) {
	var order []int // unsynchronized on purpose: -race proves no goroutine is started
	For(1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("order = %v", order)
	}
}
