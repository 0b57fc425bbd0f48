// Package harness is goroutinejoin analyzer testdata: it sits at an
// import path ending in internal/harness, so the default scope applies.
package harness

import "sync"

func work() {}

type server struct{ wg sync.WaitGroup }

// untracked launches a goroutine with no lifetime discipline at all.
func untracked() {
	go func() { // want `\[goroutinejoin\] goroutine is neither WaitGroup-tracked nor select-guarded`
		work()
	}()
}

// tracked joins the goroutine through a WaitGroup.
func (s *server) tracked() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		work()
	}()
}

// guarded can always be ended through the done channel.
func guarded(done <-chan struct{}, ch <-chan int) {
	go func() {
		for {
			select {
			case <-done:
				return
			case v := <-ch:
				_ = v
			}
		}
	}()
}

// sendOnlySelect has a select, but no receive arm — nothing can end
// the goroutine from outside, so it is still flagged.
func sendOnlySelect(out chan<- int) {
	go func() { // want `\[goroutinejoin\] goroutine is neither WaitGroup-tracked nor select-guarded`
		for {
			select {
			case out <- 1:
			default:
			}
		}
	}()
}

// named launches a method, not a literal; lifetime is reviewable at
// the method definition, so the analyzer stays silent.
func (s *server) loop() { work() }
func named(s *server)   { go s.loop() }

// allowed exercises the escape hatch.
func allowed(result chan<- int) {
	//lint:gdb-allow goroutinejoin testdata exercising the directive on the next line
	go func() {
		result <- 1
	}()
}
