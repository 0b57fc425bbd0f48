package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestReportsRenderFromRealRun(t *testing.T) {
	res := runTiny(t)
	for _, name := range ReportNames() {
		var buf bytes.Buffer
		if err := Report(res, name, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s rendered nothing", name)
		}
	}
	if err := Report(res, "nope", &bytes.Buffer{}); err == nil {
		t.Fatal("unknown report accepted")
	}
}

// render returns report name rendered from res.
func render(t *testing.T, res *Results, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Report(res, name, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// table4 parses the rendered Table 4 into engine → category → verdict.
func table4(t *testing.T, res *Results) map[string]map[string]string {
	t.Helper()
	out := map[string]map[string]string{}
	lines := strings.Split(render(t, res, "table4"), "\n")
	for _, line := range lines[2:] {
		if line == "" {
			continue
		}
		row := map[string]string{}
		for i, c := range table4Categories {
			at := 12 + 16*i + 1
			row[c.name] = strings.TrimSpace(line[at : at+15])
		}
		out[strings.TrimSpace(line[:12])] = row
	}
	return out
}

func TestReportContents(t *testing.T) {
	res := runTiny(t)
	s := render(t, res, "fig3a")
	for _, want := range []string{"neo-1.9", "sqlg", "frb-s", "ldbc"} {
		if !strings.Contains(s, want) {
			t.Errorf("fig3a missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(render(t, res, "table3"), "paper") {
		t.Error("table3 lacks paper comparison rows")
	}
	if !strings.Contains(render(t, res, "fig6"), "Q32(d=5)") {
		t.Error("fig6 lacks the depth sweep")
	}
	if !strings.Contains(render(t, res, "fig2"), "friend-of-friend") {
		t.Error("fig2 lacks complex query columns")
	}
}

func TestSummaryShape(t *testing.T) {
	res := runTiny(t)
	sum := table4(t, res)
	for _, e := range res.Config.Engines {
		if _, ok := sum[e]; !ok {
			t.Fatalf("summary lacks engine %s", e)
		}
	}
	// At least one "ok" must exist per category among engines (someone
	// is best).
	for _, c := range table4Categories {
		good := false
		for _, e := range res.Config.Engines {
			if sum[e][c.name] == verdictGood {
				good = true
			}
		}
		if !good {
			t.Errorf("category %s has no best engine", c.name)
		}
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Microsecond:  "500µs",
		2500 * time.Microsecond: "2.5ms",
		1500 * time.Millisecond: "1.50s",
		90 * time.Second:        "1.5m",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
}
