// Package obs is what the binaries share to show where their time and
// memory go: the profiling flags -cpuprofile, -memprofile and -trace,
// declared once by DefineProfiles and honoured by Profiles.Run.
package obs

import (
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Profiles holds the profile files a binary's flags ask for; an empty
// name asks for none.
type Profiles struct {
	cpu, mem, trace string
}

// DefineProfiles declares the profiling flags on fs.
func DefineProfiles(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile (pprof, gzip) of the run to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile (pprof) to this file when the run ends")
	fs.StringVar(&p.trace, "trace", "", "write a Go execution trace of the run to this file")
	return p
}

// Run runs fn under the profiles asked for: the CPU profile and the
// execution trace cover fn, and the heap profile is written, after a
// collection, when fn returns. It returns fn's error, else the first
// error met writing a profile.
func (p *Profiles) Run(fn func() error) (err error) {
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	if p.cpu != "" {
		f, e := os.Create(p.cpu)
		if e != nil {
			return e
		}
		if e := pprof.StartCPUProfile(f); e != nil {
			f.Close()
			return e
		}
		defer func() { pprof.StopCPUProfile(); keep(f.Close()) }()
	}
	if p.trace != "" {
		f, e := os.Create(p.trace)
		if e != nil {
			return e
		}
		if e := trace.Start(f); e != nil {
			f.Close()
			return e
		}
		defer func() { trace.Stop(); keep(f.Close()) }()
	}
	err = fn()
	if p.mem != "" {
		runtime.GC()
		f, e := os.Create(p.mem)
		if e != nil {
			keep(e)
			return err
		}
		keep(pprof.WriteHeapProfile(f))
		keep(f.Close())
	}
	return err
}
