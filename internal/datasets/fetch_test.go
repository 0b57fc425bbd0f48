package datasets

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestAcquireViaFetched: on a local miss the fetch layer must serve
// the graph, re-verify it, and store the artifact through the atomic
// write path — the next Acquire is a plain warm hit, no fetch, no
// generation.
func TestAcquireViaFetched(t *testing.T) {
	spec := ByName("yeast")
	g := spec.Generate(snapTestScale)
	fp := SnapshotFingerprint("yeast", snapTestScale, spec.Seed)
	raw := RawJSONSize(g)
	var art bytes.Buffer
	if err := WriteSnapshot(&art, g, raw, fp); err != nil {
		t.Fatal(err)
	}

	fetches := 0
	fetch := func(name string, want [32]byte) (io.ReadCloser, error) {
		fetches++
		if name != "yeast" || want != fp {
			return nil, errors.New("unknown artifact")
		}
		return io.NopCloser(bytes.NewReader(art.Bytes())), nil
	}

	dir := t.TempDir()
	got, st, err := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir, Fetch: fetch})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Fetched || st.Hit || !st.Stored || st.Err != nil {
		t.Fatalf("fetched acquire status: %+v", st)
	}
	if st.RawJSON != raw {
		t.Fatalf("fetched RawJSON %d, want %d", st.RawJSON, raw)
	}
	if !reflect.DeepEqual(got.VProps, g.VProps) || !reflect.DeepEqual(got.EdgeL, g.EdgeL) {
		t.Fatal("fetched graph differs from generated one")
	}
	// The artifact must have landed byte-identical at the content
	// address, with no temp residue.
	onDisk, err := os.ReadFile(st.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, art.Bytes()) {
		t.Fatal("stored artifact differs from the fetched bytes")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("cache dir holds %d entries after fetch, want 1", len(entries))
	}

	// Warm now: neither fetch nor generation.
	_, st2, err := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir, Fetch: fetch})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Hit || st2.Fetched || fetches != 1 {
		t.Fatalf("second acquire not a pure hit: %+v (fetches=%d)", st2, fetches)
	}

	// Without a cache dir the fetched artifact is verified and decoded
	// straight off the stream.
	got3, st3, err := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: "", Fetch: fetch})
	if err != nil {
		t.Fatal(err)
	}
	if !st3.Fetched || st3.Stored || st3.Path != "" || st3.RawJSON != raw {
		t.Fatalf("uncached fetched acquire: %+v", st3)
	}
	if !reflect.DeepEqual(got3.VProps, g.VProps) {
		t.Fatal("uncached fetched graph differs")
	}
}

// TestAcquireViaBadFetchFallsBack: a fetch that errors, serves
// garbage, or serves an artifact with the wrong fingerprint must fall
// back to generation — recorded as a non-fatal status error — and
// still heal the cache. A truncated transfer must leave no temp file.
func TestAcquireViaBadFetchFallsBack(t *testing.T) {
	spec := ByName("yeast")
	g := spec.Generate(snapTestScale)
	wrongFP := SnapshotFingerprint("yeast", snapTestScale, spec.Seed+1)
	var wrong bytes.Buffer
	if err := WriteSnapshot(&wrong, g, 0, wrongFP); err != nil {
		t.Fatal(err)
	}

	cases := map[string]FetchFunc{
		"fetch-error": func(string, [32]byte) (io.ReadCloser, error) {
			return nil, errors.New("scheduler unreachable")
		},
		"garbage": func(string, [32]byte) (io.ReadCloser, error) {
			return io.NopCloser(strings.NewReader("not a snapshot at all")), nil
		},
		"wrong-fingerprint": func(string, [32]byte) (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(wrong.Bytes())), nil
		},
	}
	for name, fetch := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			got, st, err := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir, Fetch: fetch})
			if err != nil {
				t.Fatal(err)
			}
			if st.Fetched || st.Hit {
				t.Fatalf("bad fetch served a graph: %+v", st)
			}
			if st.Err == nil || !strings.Contains(st.Err.Error(), "fetch") {
				t.Fatalf("fetch failure not surfaced: %v", st.Err)
			}
			if !st.Stored {
				t.Fatalf("generation fallback did not heal the cache: %+v", st)
			}
			if !reflect.DeepEqual(got.VProps, g.VProps) || !reflect.DeepEqual(got.EdgeL, g.EdgeL) {
				t.Fatal("fallback graph differs from generated one")
			}
			// No temp residue from the failed transfer.
			entries, _ := os.ReadDir(dir)
			for _, e := range entries {
				if strings.HasPrefix(e.Name(), ".tmp-") {
					t.Fatalf("failed fetch stranded temp file %s", e.Name())
				}
			}
		})
	}
}

// TestAcquireViaFetchSurvivesStoreFailure: when the transfer is fine
// but the cache cannot be written (here: the cache path is a regular
// file, so staging fails before a byte is consumed), the fetched
// artifact must still be decoded and served — generation is for failed
// *fetches*, not failed stores — with the store problem surfaced as a
// non-fatal status error.
func TestAcquireViaFetchSurvivesStoreFailure(t *testing.T) {
	spec := ByName("yeast")
	g := spec.Generate(snapTestScale)
	fp := SnapshotFingerprint("yeast", snapTestScale, spec.Seed)
	raw := RawJSONSize(g)
	var art bytes.Buffer
	if err := WriteSnapshot(&art, g, raw, fp); err != nil {
		t.Fatal(err)
	}
	fetches := 0
	fetch := func(string, [32]byte) (io.ReadCloser, error) {
		fetches++
		return io.NopCloser(bytes.NewReader(art.Bytes())), nil
	}

	badDir := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(badDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, st, err := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: badDir, Fetch: fetch})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Fetched || st.Stored || st.Hit {
		t.Fatalf("store-failure acquire status: %+v", st)
	}
	if st.Err == nil || !strings.Contains(st.Err.Error(), "served uncached") {
		t.Fatalf("store failure not surfaced as uncached serve: %v", st.Err)
	}
	if fetches != 1 {
		t.Fatalf("fetch called %d times, want 1", fetches)
	}
	if st.RawJSON != raw {
		t.Fatalf("RawJSON %d, want %d", st.RawJSON, raw)
	}
	if !reflect.DeepEqual(got.VProps, g.VProps) || !reflect.DeepEqual(got.EdgeL, g.EdgeL) {
		t.Fatal("fetched-uncached graph differs from generated one")
	}
}

// TestSweepStaleTemps: temp files stranded by a crash between
// CreateTemp and Rename must be swept during Acquire once they are
// older than the grace period; fresh temps (a concurrent writer) and
// unrelated files must survive.
func TestSweepStaleTemps(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	stale := mk(".tmp-yeast-old-123")
	fresh := mk(".tmp-yeast-new-456")
	other := mk("keep.gsnp")
	old := time.Now().Add(-2 * staleTempGrace)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	if _, _, err := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp not swept: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp swept: %v", err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("non-temp file swept: %v", err)
	}
}
