package harness

import "sync"

// cellScheduler coordinates one grid's pending cells between local
// worker goroutines and remote worker slots. Unlike a plain index
// fan-out (par.For) it has two queues:
//
//   - shared: cells any executor may take — with one restriction: a
//     remote that already failed a cell never gets that cell again;
//   - local: cells that must run locally — a cell comes here when
//     every live remote has either failed it or retired, so it can
//     never be lost (the DNF/requeue contract: worker deaths cost
//     wall-clock time, never results).
//
// When a remote worker dies mid-cell, the cell is first requeued to
// the *shared* queue with the dead worker excluded, so a different
// live remote can retry it; only when no such remote exists does it
// fall to the local-only queue. Local workers block while both queues
// are empty but cells are still in flight elsewhere: an in-flight
// remote cell may yet be requeued to them. Remote slots never block:
// once the shared queue holds nothing they may take, the slot retires.
type cellScheduler struct {
	mu       sync.Mutex
	cond     *sync.Cond
	shared   []int
	local    []int
	inflight int
	stopped  bool

	// remoteSlots counts the live dispatch slots per remote executor
	// id; excluded[i] is the set of executor ids that already failed
	// cell i.
	remoteSlots map[int]int
	excluded    map[int]map[int]bool
}

func newCellScheduler(pending []int) *cellScheduler {
	s := &cellScheduler{
		shared:      append([]int(nil), pending...),
		remoteSlots: make(map[int]int),
		excluded:    make(map[int]map[int]bool),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// registerRemoteSlot announces one live dispatch slot of the given
// remote executor. Must be called before the slot starts pulling
// cells; balanced by retireRemoteSlot.
func (s *cellScheduler) registerRemoteSlot(executor int) {
	s.mu.Lock()
	s.remoteSlots[executor]++
	s.mu.Unlock()
}

// retireRemoteSlot retracts one slot of the executor. When an
// executor's last slot retires, cells waiting in the shared queue for
// "a different live remote" may now have none left — waking the local
// workers lets them reassess.
func (s *cellScheduler) retireRemoteSlot(executor int) {
	s.mu.Lock()
	s.remoteSlots[executor]--
	if s.remoteSlots[executor] <= 0 {
		delete(s.remoteSlots, executor)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// nextLocal returns the next cell for a local worker, blocking while
// cells are in flight elsewhere. ok is false when the grid is drained
// (or stopped): no pending cells anywhere and nothing in flight.
func (s *cellScheduler) nextLocal() (i int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		switch {
		case s.stopped:
			return 0, false
		case len(s.local) > 0:
			i, s.local = s.local[0], s.local[1:]
			s.inflight++
			return i, true
		case len(s.shared) > 0:
			i, s.shared = s.shared[0], s.shared[1:]
			s.inflight++
			return i, true
		case s.inflight == 0:
			return 0, false
		}
		s.cond.Wait()
	}
}

// nextRemote returns the next cell for a slot of the given remote
// executor, never blocking: it skips cells the executor has already
// failed, and an empty (or fully-excluded) shared queue retires the
// slot.
func (s *cellScheduler) nextRemote(executor int) (i int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return 0, false
	}
	for k, c := range s.shared {
		if s.excluded[c][executor] {
			continue
		}
		s.shared = append(s.shared[:k], s.shared[k+1:]...)
		s.inflight++
		return c, true
	}
	return 0, false
}

// done retires an in-flight cell and wakes waiting local workers (the
// grid may now be drained).
func (s *cellScheduler) done() {
	s.mu.Lock()
	s.inflight--
	s.cond.Broadcast()
	s.mu.Unlock()
}

// requeueRemote returns a cell whose execution on the given remote
// executor failed. The cell goes back to the *front* of the shared
// queue — it is older than anything queued behind it — when a
// different live remote could still take it; otherwise it joins the
// local-only queue. Reports whether the cell stayed remotely
// available.
func (s *cellScheduler) requeueRemote(i, executor int) (retriableRemotely bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	ex := s.excluded[i]
	if ex == nil {
		ex = make(map[int]bool)
		s.excluded[i] = ex
	}
	ex[executor] = true
	for id, slots := range s.remoteSlots {
		if slots > 0 && !ex[id] {
			s.shared = append([]int{i}, s.shared...)
			s.cond.Broadcast()
			return true
		}
	}
	s.local = append(s.local, i)
	s.cond.Broadcast()
	return false
}

// stop drains the scheduler early: queued cells are dropped and every
// executor retires as soon as it finishes its current cell. Used when
// the grid aborts on a checkpoint write failure.
func (s *cellScheduler) stop() {
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
}
