package main

import (
	"strings"
	"testing"

	"repro/internal/engines"
)

func newTestSession(t *testing.T) *session {
	t.Helper()
	e, err := engines.New("neo-1.9")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return newSession(e)
}

// run evaluates a command and fails the test on a usage/unknown reply.
func run(t *testing.T, s *session, cmd string) string {
	t.Helper()
	out, quit := s.Eval(cmd)
	if quit {
		t.Fatalf("%q quit the shell", cmd)
	}
	if strings.HasPrefix(out, "usage:") || strings.HasPrefix(out, "unknown command") {
		t.Fatalf("%q -> %q", cmd, out)
	}
	return out
}

func TestShellCRUDFlow(t *testing.T) {
	s := newTestSession(t)
	if out := run(t, s, "addv name=ann age=31"); out != "vertex 0" {
		t.Fatalf("addv -> %q", out)
	}
	run(t, s, "addv name=bob")
	if out := run(t, s, "adde 0 1 knows since=2015"); out != "edge 0" {
		t.Fatalf("adde -> %q", out)
	}
	if out := run(t, s, "v 0"); !strings.Contains(out, "name=ann") || !strings.Contains(out, "age=31") {
		t.Fatalf("v 0 -> %q", out)
	}
	if out := run(t, s, "e 0"); !strings.Contains(out, "-knows->") || !strings.Contains(out, "since=2015") {
		t.Fatalf("e 0 -> %q", out)
	}
	if out := run(t, s, "count v"); out != "2" {
		t.Fatalf("count v -> %q", out)
	}
	if out := run(t, s, "out 0"); out != "[1]" {
		t.Fatalf("out 0 -> %q", out)
	}
	if out := run(t, s, "set v 0 age 32"); out != "ok" {
		t.Fatalf("set -> %q", out)
	}
	if out := run(t, s, "v 0"); !strings.Contains(out, "age=32") {
		t.Fatalf("v 0 after set -> %q", out)
	}
	if out := run(t, s, "search name ann"); !strings.Contains(out, "1 vertices") {
		t.Fatalf("search -> %q", out)
	}
	run(t, s, "index name")
	if out := run(t, s, "search name ann"); !strings.Contains(out, "1 vertices") {
		t.Fatalf("indexed search -> %q", out)
	}
	if out := run(t, s, "rme 0"); out != "removed" {
		t.Fatalf("rme -> %q", out)
	}
	if out := run(t, s, "count e"); out != "0" {
		t.Fatalf("count e -> %q", out)
	}
	if out := run(t, s, "rmv 1"); out != "removed" {
		t.Fatalf("rmv -> %q", out)
	}
}

func TestShellGenAndTraversals(t *testing.T) {
	s := newTestSession(t)
	out := run(t, s, "gen yeast 0.05")
	if !strings.Contains(out, "loaded") {
		t.Fatalf("gen -> %q", out)
	}
	if out := run(t, s, "count v"); out == "0" {
		t.Fatal("gen loaded nothing")
	}
	if out := run(t, s, "labels"); !strings.Contains(out, "-") {
		t.Fatalf("labels -> %q", out)
	}
	if out := run(t, s, "bfs 0 2"); !strings.Contains(out, "vertices") {
		t.Fatalf("bfs -> %q", out)
	}
	run(t, s, "sp 0 5")
	if out := run(t, s, "space"); !strings.Contains(out, "total") {
		t.Fatalf("space -> %q", out)
	}
	if out := run(t, s, "meta"); !strings.Contains(out, "neo-1.9") {
		t.Fatalf("meta -> %q", out)
	}
}

func TestShellEngineSwitch(t *testing.T) {
	s := newTestSession(t)
	run(t, s, "addv")
	if out := run(t, s, "engine sqlg"); !strings.Contains(out, "switched") {
		t.Fatalf("engine -> %q", out)
	}
	if out := run(t, s, "count v"); out != "0" {
		t.Fatalf("switch kept data: %q", out)
	}
	if out, _ := s.Eval("engine nope"); !strings.Contains(out, "unknown engine") {
		t.Fatalf("bad engine -> %q", out)
	}
}

func TestShellErrorsAndUsage(t *testing.T) {
	s := newTestSession(t)
	cases := []string{
		"adde", "v", "e 0", "rmv 99", "set v", "out", "count x",
		"gen nope 1", "gen yeast abc", "bfs a b", "sp 1", "load /nonexistent.json",
		"addv broken-prop",
	}
	for _, c := range cases {
		out, quit := s.Eval(c)
		if quit {
			t.Fatalf("%q quit", c)
		}
		if out == "" {
			t.Fatalf("%q produced no diagnostics", c)
		}
	}
	if out, _ := s.Eval("zzz"); !strings.Contains(out, "unknown command") {
		t.Fatalf("unknown -> %q", out)
	}
	if out, _ := s.Eval(""); out != "" {
		t.Fatalf("empty line -> %q", out)
	}
	if out, _ := s.Eval("help"); !strings.Contains(out, "commands:") {
		t.Fatalf("help -> %q", out)
	}
	if _, quit := s.Eval("quit"); !quit {
		t.Fatal("quit did not quit")
	}
}

func TestShellValueParsing(t *testing.T) {
	s := newTestSession(t)
	run(t, s, "addv i=42 f=2.5 b=true s=hello")
	out := run(t, s, "v 0")
	for _, want := range []string{"i=42", "f=2.5", "b=true", "s=hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("v 0 = %q, missing %s", out, want)
		}
	}
	// Typed search must distinguish int from string.
	if out := run(t, s, "search i 42"); !strings.Contains(out, "1 vertices") {
		t.Fatalf("typed search -> %q", out)
	}
	if out := run(t, s, "search s 42"); !strings.Contains(out, "0 vertices") {
		t.Fatalf("string search -> %q", out)
	}
}

func TestShellExplain(t *testing.T) {
	s := newTestSession(t)
	run(t, s, "gen yeast 0.05")
	out := run(t, s, "explain E hasLabel:x limit:5")
	if !strings.HasPrefix(out, "plan (snapshot stats)") || !strings.Contains(out, "E().hasLabel(x) [index]") || !strings.Contains(out, "limit(5)") {
		t.Fatalf("explain -> %q", out)
	}
	// A negative budget has no meaning: it would render an estimate
	// below zero as unknown, and a negative sample capacity panics.
	for _, bad := range []string{"explain V limit:-1", "explain V sample:-2"} {
		if out, _ := s.Eval(bad); !strings.Contains(out, "n >= 0") {
			t.Fatalf("%q -> %q, want a rejection", bad, out)
		}
	}
}
