package harness

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

func TestExportImportJSONRoundTrip(t *testing.T) {
	res := runTiny(t)
	var buf bytes.Buffer
	if err := ExportJSON(res, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ImportJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Micro) != len(res.Micro) || len(got.Loads) != len(res.Loads) ||
		len(got.Complex) != len(res.Complex) || len(got.Indexed) != len(res.Indexed) {
		t.Fatalf("round trip lost measurements: %d/%d micro", len(got.Micro), len(res.Micro))
	}
	if got.Config.Scale != res.Config.Scale || got.Config.BatchSize != res.Config.BatchSize {
		t.Fatalf("config lost: %+v", got.Config)
	}
	// Engines/datasets reconstructed for report rendering.
	if len(got.Config.Engines) != len(res.Config.Engines) {
		t.Fatalf("engines = %v", got.Config.Engines)
	}
	if !strings.Contains(render(t, got, "fig3a"), "frb-s") {
		t.Fatal("imported results cannot render reports")
	}
}

// TestImportJSONRestoresTable3 renders Table 3 from an import as the
// live run renders it, and imports an export from before the stats
// field with Table 3 empty.
func TestImportJSONRestoresTable3(t *testing.T) {
	res := runTiny(t)
	var buf bytes.Buffer
	if err := ExportJSON(res, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ImportJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if live, imported := render(t, res, "table3"), render(t, got, "table3"); imported != live {
		t.Fatalf("imported Table 3 differs:\n%s\nlive:\n%s", imported, live)
	}

	old := *res
	old.Stats = nil
	buf.Reset()
	if err := ExportJSON(&old, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"stats"`) {
		t.Fatal("an export without stats carries the field")
	}
	got, err = ImportJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if empty := render(t, &old, "table3"); render(t, got, "table3") != empty {
		t.Fatalf("an export without stats imported %d Table 3 rows", len(got.Stats))
	}
}

func TestImportJSONRejectsGarbage(t *testing.T) {
	if _, err := ImportJSON(strings.NewReader("{broken")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestExportCSV(t *testing.T) {
	res := runTiny(t)
	var buf bytes.Buffer
	if err := ExportCSV(res, &buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + len(res.Loads) + len(res.Micro) + len(res.Indexed) + len(res.Complex)
	if len(rows) != want {
		t.Fatalf("csv rows = %d, want %d", len(rows), want)
	}
	if rows[0][0] != "engine" || len(rows[0]) != 8 {
		t.Fatalf("header = %v", rows[0])
	}
	// Q1 rows present (loads).
	foundQ1 := false
	for _, r := range rows[1:] {
		if r[2] == "Q1" {
			foundQ1 = true
		}
		if len(r) != 8 {
			t.Fatalf("ragged row %v", r)
		}
	}
	if !foundQ1 {
		t.Fatal("no Q1 load rows in CSV")
	}
}

func TestShapesRunOnTinyResults(t *testing.T) {
	res := runTiny(t)
	out := render(t, res, "shapes")
	// The tiny run only has neo-1.9 and sqlg: engine-specific checks
	// must be skipped, not failed.
	if !strings.Contains(out, "SKIP") {
		t.Error("expected skipped checks for missing engines")
	}
	// The cross-engine checks that do apply must be present.
	for _, id := range []string{"id-lookup-fast-everywhere", "index-speeds-q11", "batch-amortizes-cud-setup"} {
		if !strings.Contains(out, id) {
			t.Errorf("missing shape %s:\n%s", id, out)
		}
	}
}

func TestShapesHaveUniqueIDsAndClaims(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range shapes {
		if s.id == "" || s.paper == "" || s.check == nil {
			t.Fatalf("incomplete shape %+v", s)
		}
		if seen[s.id] {
			t.Fatalf("duplicate shape id %s", s.id)
		}
		seen[s.id] = true
	}
	if len(seen) < 12 {
		t.Fatalf("expected a substantial findings checklist, got %d", len(seen))
	}
}
