package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// runAsMain makes this test binary run as gdb-bench: the smoke test drives
// the real command with no build step, race-built under go test -race.
const runAsMain = "GDB_BENCH_SMOKE_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// cellStart matches the -v progress line of each executed grid cell.
var cellStart = regexp.MustCompile(`(?m)^(micro-i|micro-b|indexed|complex) `)

// command runs this binary as gdb-bench in dir on the smoke grid.
func command(dir string, args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], append([]string{"-scale", "0.001", "-engines", "neo-1.9,sqlg",
		"-datasets", "frb-s", "-frozen-clock", "-report", "fig1c"}, args...)...)
	cmd.Dir, cmd.Env = dir, append(os.Environ(), runAsMain+"=1")
	return cmd
}

// TestSmoke runs a six-cell grid (two engines on frb-s, frozen clock):
// every resumed or cached run must export the uninterrupted run's bytes.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	run := func(t *testing.T, args ...string) string { // stdout+stderr of a run that must exit 0
		t.Helper()
		out, err := command(dir, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("gdb-bench %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	sameExport := func(t *testing.T, name string, want []byte) {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || len(got) == 0 || !bytes.Equal(got, want) {
			t.Fatalf("%s differs from the uninterrupted run's export (%v)", name, err)
		}
	}
	run(t, "-checkpoint", "fresh.jsonl", "-export-json", "fresh.json")
	fresh, _ := os.ReadFile(filepath.Join(dir, "fresh.json"))
	sameExport(t, "fresh.json", fresh) // exists and is not empty
	t.Run("resume-truncated-checkpoint", func(t *testing.T) {
		// Header, two records and half the third: a crash mid-record.
		raw, _ := os.ReadFile(filepath.Join(dir, "fresh.jsonl"))
		lines := bytes.SplitAfter(raw, []byte("\n"))
		cut := append(bytes.Join(lines[:3], nil), lines[3][:len(lines[3])/2]...)
		if err := os.WriteFile(filepath.Join(dir, "cut.jsonl"), cut, 0o644); err != nil {
			t.Fatal(err)
		}
		if out := run(t, "-checkpoint", "cut.jsonl", "-status"); !strings.Contains(out, "2/6 cells done") {
			t.Fatalf("-status on the cut checkpoint:\n%s", out)
		}
		log := run(t, "-checkpoint", "cut.jsonl", "-resume", "-v", "-export-json", "resumed.json", "-export-csv", "resumed.csv")
		if n := len(cellStart.FindAllString(log, -1)); n != 4 || !strings.Contains(log, "resume: 2/6 cells restored") {
			t.Fatalf("resume restored 2 cells and executed %d, want 4:\n%s", n, log)
		}
		sameExport(t, "resumed.json", fresh)
	})
	t.Run("sigkill-then-resume", func(t *testing.T) {
		cmd := command(dir, "-checkpoint", "killed.jsonl", "-workers", "1", "-v")
		stderr, _ := cmd.StderrPipe() // fails only once Stderr is set
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// One worker fsyncs each record before the next cell starts: the
		// second cell's line means the first record is on disk.
		started := 0
		for sc := bufio.NewScanner(stderr); started < 2 && sc.Scan(); {
			if cellStart.MatchString(sc.Text()) {
				started++
			}
		}
		cmd.Process.Kill() // SIGKILL; a run that already finished is fine too
		cmd.Wait()
		if started < 2 {
			t.Fatal("gdb-bench exited before starting its second cell")
		}
		run(t, "-checkpoint", "killed.jsonl", "-resume", "-export-json", "killed.json")
		sameExport(t, "killed.json", fresh)
	})
	t.Run("table3-without-a-run", func(t *testing.T) {
		imported := run(t, "-report", "table3", "-import-json", "fresh.json")
		for _, state := range []string{"cold", "warm"} {
			if out := run(t, "-report", "table3", "-dataset-cache", "stats-cache", "-v"); out != imported || cellStart.MatchString(out) {
				t.Fatalf("Table 3 without a run, %s cache:\n%s\nfrom the run's export:\n%s", state, out, imported)
			}
		}
	})
	t.Run("static-report-refuses-export", func(t *testing.T) {
		for _, args := range [][]string{
			{"-report", "table1", "-export-json", "static.json"},
			{"-report", "table2", "-export-csv", "static.csv"},
			{"-report", "table3", "-export-json", "static.json"},
		} {
			out, err := command(dir, args...).CombinedOutput()
			_, statErr := os.Stat(filepath.Join(dir, args[3]))
			if err == nil || !strings.Contains(string(out), args[2]+":") || !os.IsNotExist(statErr) {
				t.Fatalf("gdb-bench %s: %v, file %v, want an error naming %s and no file:\n%s", strings.Join(args, " "), err, statErr, args[2], out)
			}
		}
	})
	t.Run("profiles", func(t *testing.T) {
		run(t, "-cpuprofile", "cpu.pprof", "-memprofile", "mem.pprof", "-trace", "run.trace", "-export-json", "profiled.json")
		sameExport(t, "profiled.json", fresh)
		f, err := os.Open(filepath.Join(dir, "cpu.pprof"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("CPU profile is not gzip: %v", err)
		}
		if raw, err := io.ReadAll(zr); err != nil || len(raw) == 0 {
			t.Fatalf("CPU profile holds %d bytes (%v)", len(raw), err)
		}
		for _, name := range []string{"mem.pprof", "run.trace"} {
			if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
				t.Fatalf("%s not written (%v)", name, err)
			}
		}
	})
	t.Run("dataset-cache", func(t *testing.T) {
		cold := run(t, "-dataset-cache", "cache", "-v", "-export-json", "cold.json")
		warm := run(t, "-dataset-cache", "cache", "-v", "-export-json", "warm.json")
		switch {
		case !strings.Contains(cold, "generated") || !strings.Contains(cold, "snapshot cached"):
			t.Fatalf("cold run did not generate and cache the dataset:\n%s", cold)
		case strings.Contains(warm, "generated") || !strings.Contains(warm, "warm cache hit"):
			t.Fatalf("warm run did not acquire the dataset from the cache:\n%s", warm)
		case runtime.GOOS == "linux" && !strings.Contains(warm, "mapped=true"):
			t.Fatalf("warm run on Linux did not map the artifact:\n%s", warm)
		}
		sameExport(t, "cold.json", fresh)
		sameExport(t, "warm.json", fresh)
	})
}
