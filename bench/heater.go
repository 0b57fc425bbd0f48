package main

import (
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// The workloads other than serve are single-threaded, so one of the
// box's two cores has nothing to do but the collector's background work
// and sleeps in between. In a virtual machine a sleeping core is a
// halted vCPU, and waking it — the Go runtime does so thousands of
// times a second — goes through the host's scheduler, at a price that
// changes with what else the host is doing: a mutation stream ran 12 %
// slower and three times as unsteadily (10 % against 3 % between the
// quartiles of runs) as beside a core that never sleeps. The heater is
// that: a child process that spins at the lowest scheduling priority
// there is, so that it only ever takes time nobody wants, and the core
// stays awake. It is the guest's equivalent of booting with idle=poll.

// startHeater starts the child and returns the function that stops it
// and waits for it to end. The child spins until its standard input
// closes, which the kernel sees to should this process die first.
func startHeater() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-heater")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() {
		stdin.Close()
		cmd.Wait()
	}, nil
}

// heat is the child: it lowers itself to SCHED_IDLE, or failing that to
// the weakest nice level, and spins until standard input closes.
func heat() {
	runtime.LockOSThread()
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19)
	}
	var done atomic.Bool
	go func() {
		io.Copy(io.Discard, os.Stdin)
		done.Store(true)
	}()
	for !done.Load() {
		spin()
	}
}
