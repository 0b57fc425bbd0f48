// Command gdb-worker serves evaluation grid cells to a remote
// gdb-bench scheduler, letting one grid span machines: start a worker
// on each spare machine, point the scheduler at them with
// -remote host:port, and the workers' slots join the local ones.
//
// Run gdb-worker -h for the flags. README.md describes every one of
// them, and the docsync test fails when a flag is missing there.
//
// The handshake requires the worker and scheduler builds to have
// identical engine and dataset catalogs (the catalog fingerprint), so
// measurements from diverged builds can never mix. SIGINT/SIGTERM
// drains gracefully: in-flight cells finish and their results reach
// the scheduler, new cells are refused (the scheduler reassigns them
// locally), then the process exits.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/remote"
)

// options holds every gdb-worker flag, declared through defineFlags so
// the doc-sync test can enumerate them.
type options struct {
	listen        string
	capacity      int
	exec          func() harness.Exec
	artifactFetch bool
	heartbeat     time.Duration
}

func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.listen, "listen", ":9777", "address to serve grid cells on")
	fs.IntVar(&o.capacity, "capacity", runtime.NumCPU(), "concurrent cells this worker accepts")
	o.exec = harness.ExecFlags(fs)
	fs.BoolVar(&o.artifactFetch, "artifact-fetch", true, "fetch missing dataset artifacts from the scheduler before generating locally")
	fs.DurationVar(&o.heartbeat, "heartbeat", remote.DefaultHeartbeat, "liveness interval announced to schedulers")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	h := &harness.WorkerHandler{Exec: o.exec(), FetchArtifacts: o.artifactFetch}
	srv := &remote.Server{
		Handler:   h,
		Capacity:  o.capacity,
		Heartbeat: o.heartbeat,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "gdb-worker: "+format+"\n", args...)
		},
	}

	l, err := net.Listen("tcp", o.listen)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "gdb-worker: serving %d slots on %s (catalog %.12s…)\n",
		o.capacity, l.Addr(), harness.CatalogFingerprint())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "gdb-worker: draining (in-flight cells finish, new cells are refused)")
		srv.Drain()
	}()

	if err := srv.Serve(l); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "gdb-worker: drained")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gdb-worker:", err)
	os.Exit(1)
}
