package engines

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
)

func TestAllNamesConstruct(t *testing.T) {
	for _, name := range Names() {
		e, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if got := e.Meta().Name; got != name {
			t.Errorf("Meta().Name = %q, registered as %q", got, name)
		}
		e.Close()
	}
}

func TestUnknownName(t *testing.T) {
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if Constructor("nope") != nil {
		t.Fatal("Constructor returned non-nil for unknown name")
	}
}

func TestForEachVisitsAll(t *testing.T) {
	seen := map[string]bool{}
	err := ForEach(func(e core.Engine) error {
		seen[e.Meta().Name] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(Names()) {
		t.Fatalf("visited %d engines, want %d", len(seen), len(Names()))
	}
}

func TestTable1Metadata(t *testing.T) {
	// The registry must reproduce Table 1's native/hybrid split.
	wantKind := map[string]core.SystemKind{
		"arango":    core.KindHybrid,
		"blaze":     core.KindHybrid,
		"neo-1.9":   core.KindNative,
		"neo-3.0":   core.KindNative,
		"orient":    core.KindNative,
		"sparksee":  core.KindNative,
		"sqlg":      core.KindHybrid,
		"titan-0.5": core.KindHybrid,
		"titan-1.0": core.KindHybrid,
	}
	for name, want := range wantKind {
		e, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Meta().Kind; got != want {
			t.Errorf("%s: kind = %q, want %q", name, got, want)
		}
		e.Close()
	}
}

// TestSupportsDurable: SupportsDurable names exactly the engines
// OpenDurable can build — the titan configurations — and the durable
// engine comes back empty from a fresh directory.
func TestSupportsDurable(t *testing.T) {
	if !SupportsDurable("titan-0.5") || !SupportsDurable("titan-1.0") || SupportsDurable("sqlg") {
		t.Fatal("SupportsDurable misreports")
	}
	for _, name := range Names() {
		e, rst, err := OpenDurable(name, filepath.Join(t.TempDir(), "store"))
		if (err == nil) != SupportsDurable(name) {
			t.Fatalf("%s: SupportsDurable = %v, OpenDurable error = %v", name, SupportsDurable(name), err)
		}
		if err != nil {
			continue
		}
		if nv, _ := e.CountVertices(); nv != 0 || rst.Records != 0 {
			t.Fatalf("%s: fresh durable store has %d vertices, replayed %d records", name, nv, rst.Records)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
