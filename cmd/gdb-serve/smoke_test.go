package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engines"
	"repro/internal/serve"
)

// runAsMain makes this test binary run as gdb-serve: the smoke test drives
// the real command with no build step, race-built under go test -race.
const runAsMain = "GDB_SERVE_SMOKE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func command(dir string, args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], append(args, "-dataset-cache", "cache")...)
	cmd.Dir, cmd.Env = dir, append(os.Environ(), runAsMain+"=1")
	return cmd
}

// TestSmoke drives gdb-serve: closed-loop reports, two -ops runs with
// byte-identical op logs and equal counts, and a durable store
// recovered after a SIGKILL.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	run := func(t *testing.T, args ...string) []byte { // output of a run that must exit 0
		t.Helper()
		out, err := command(dir, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("gdb-serve %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return out
	}
	// report runs 8 closed-loop clients for 300ms; the report must carry the
	// schema, no errors, ordered quantiles and per-op counts summing to ops.
	report := func(t *testing.T, args ...string) {
		t.Helper()
		out := run(t, append(args, "-clients", "8", "-duration", "300ms")...)
		var rep serve.Report
		err := json.Unmarshal(out, &rep)
		for _, o := range rep.PerOp {
			rep.Ops -= o.Count
		}
		l := rep.Latency
		if err != nil || rep.Schema != serve.Schema || rep.Clients != 8 || rep.Loop != "closed" || rep.Ops != 0 ||
			rep.Throughput <= 0 || rep.Errors != 0 || !(0 < l.P50 && l.P50 <= l.P95 && l.P95 <= l.P99 && l.P99 <= l.P999 && l.P999 <= l.Max) {
			t.Fatalf("malformed report (%v):\n%s", err, out)
		}
	}
	// audit recovers the store: the audit must pass, and only WAL segments remain.
	audit := func(t *testing.T) engines.DurableReport {
		t.Helper()
		out := run(t, "-engine", "titan-1.0", "-lsm-dir", store, "-lsm-audit")
		var rep engines.DurableReport
		err := json.Unmarshal(out, &rep)
		all, _ := os.ReadDir(store)
		segs, _ := filepath.Glob(filepath.Join(store, "wal-*.seg"))
		if err != nil || !rep.AuditOk || rep.Vertices <= 0 || rep.NextID <= 0 || len(segs) == 0 || len(segs) != len(all) {
			t.Fatalf("audit of the recovered store (%v), %d of its %d files WAL segments:\n%s", err, len(segs), len(all), out)
		}
		return rep
	}
	t.Run("closed-loop-mixed", func(t *testing.T) {
		report(t, "-engine", "neo-1.9", "-mix", "read=60,traverse=20,insert=10,update=10")
	})
	t.Run("read-only-serialized", func(t *testing.T) {
		report(t, "-engine", "sparksee") // vetoes concurrent readers: core.Guard serializes the clients
	})
	t.Run("frozen-replay", func(t *testing.T) { // a fixed -ops schedule replays
		replay := func(oplog string) (string, serve.Report) {
			out := run(t, "-engine", "sqlg", "-ops", "500", "-clients", "4", "-rate", "100000",
				"-mix", "read=50,traverse=30,insert=10,update=10", "-seed", "42", "-oplog", oplog)
			log, _ := os.ReadFile(filepath.Join(dir, oplog))
			var rep serve.Report
			if err := json.Unmarshal(out, &rep); err != nil || rep.Ops != 2000 || rep.Errors != 0 {
				t.Fatalf("report of a 4×500-op run (%v):\n%s", err, out)
			}
			rep.DurationNS, rep.Throughput, rep.Latency = 0, 0, serve.Summary{}
			for i := range rep.PerOp {
				rep.PerOp[i].Summary = serve.Summary{}
			}
			return string(log), rep
		}
		logA, repA := replay("ops-a.jsonl")
		logB, repB := replay("ops-b.jsonl")
		if logA != logB || !strings.HasPrefix(logA, `{"client":0,"seq":0,`) {
			t.Fatalf("two identical -ops runs differ in op log:\n%s\n---\n%s", logA, logB)
		}
		if !reflect.DeepEqual(repA, repB) {
			t.Fatalf("two identical -ops runs differ in counts:\n%+v\n---\n%+v", repA, repB)
		}
	})
	t.Run("durable-sigkill", func(t *testing.T) {
		cmd := command(dir, "-engine", "titan-1.0", "-clients", "4", "-duration", "60s",
			"-mix", "read=15,traverse=5,insert=55,update=25", "-seed", "7", "-lsm-dir", store, "-v")
		stderr, _ := cmd.StderrPipe() // fails only once Stderr is set
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		serving := false
		for sc := bufio.NewScanner(stderr); !serving && sc.Scan(); {
			serving = strings.HasPrefix(sc.Text(), "serving:")
		}
		time.Sleep(200 * time.Millisecond) // let the clients' writes reach the log
		cmd.Process.Kill()                 // SIGKILL
		cmd.Wait()
		if !serving {
			t.Fatal("gdb-serve exited before serving")
		}
		if rep := audit(t); rep.RecordsReplayed <= 1000 {
			t.Fatalf("recovery replayed only %d records", rep.RecordsReplayed)
		}
		report(t, "-engine", "titan-1.0", "-mix", "read=50,traverse=30,insert=10,update=10", "-seed", "8", "-lsm-dir", store)
		audit(t)
	})
}
