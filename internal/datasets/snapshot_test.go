package datasets

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/enc"
)

const snapTestScale = 0.001

// sameGraph compares two graphs for exact equality of contents,
// treating a nil and an empty slice as the same (a decoded empty graph
// need not reproduce the capacity hints of NewGraph).
func sameGraph(a, b *core.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	if a.NumVertices() > 0 && !reflect.DeepEqual(a.VProps, b.VProps) {
		return false
	}
	return a.NumEdges() == 0 || reflect.DeepEqual(a.EdgeL, b.EdgeL)
}

// decodeArtifact verifies and decodes an in-memory artifact through
// the chain openArtifact applies to a file.
func decodeArtifact(raw []byte, want [32]byte) (*core.Graph, int64, error) {
	v, err := parseArtifact(raw, want)
	if err != nil {
		return nil, 0, err
	}
	return decodeGraph(v)
}

// TestSnapshotRoundTripAllDatasets is the byte-identity contract of the
// cache: for every dataset in the catalog, decode(encode(g)) must
// reproduce the generated graph exactly — including the nil-versus-
// empty distinction of property maps — and encoding must be
// deterministic.
func TestSnapshotRoundTripAllDatasets(t *testing.T) {
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			g := spec.Generate(snapTestScale)
			fp := SnapshotFingerprint(spec.Name, snapTestScale, spec.Seed)

			raw := RawJSONSize(g)
			art := encodeSnapshot(g, raw, fp)
			if !bytes.Equal(art, encodeSnapshot(g, raw, fp)) {
				t.Fatal("snapshot encoding is not deterministic")
			}

			got, gotRaw, err := decodeArtifact(art, fp)
			if err != nil {
				t.Fatal(err)
			}
			if gotRaw != raw {
				t.Fatalf("decoded raw GraphSON size %d, want %d", gotRaw, raw)
			}
			if !reflect.DeepEqual(got.VProps, g.VProps) {
				t.Fatal("decoded vertex properties differ from generated ones")
			}
			if !reflect.DeepEqual(got.EdgeL, g.EdgeL) {
				t.Fatal("decoded edges differ from generated ones")
			}
		})
	}
}

// kindsGraph has shapes the generators do not produce: empty-but-non-nil
// and nil property maps, every value kind, and parallel/self edges.
func kindsGraph() *core.Graph {
	g := core.NewGraph(4, 4)
	g.AddVertex(core.Props{}) // empty, non-nil
	g.AddVertex(nil)          // nil
	g.AddVertex(core.Props{"s": core.S("x"), "i": core.I(-42), "f": core.F(1.5), "b": core.B(true), "n": core.Nil})
	g.AddVertex(core.Props{"f0": core.F(0), "bf": core.B(false)})
	g.AddEdge(2, 2, "self", core.Props{})
	g.AddEdge(2, 3, "par", nil)
	g.AddEdge(2, 3, "par", core.Props{"w": core.F(-0.5)})
	return g
}

// TestSnapshotRoundTripEdgeCases covers the empty graph and kindsGraph.
func TestSnapshotRoundTripEdgeCases(t *testing.T) {
	graphs := map[string]*core.Graph{
		"empty": core.NewGraph(0, 0),
		"kinds": kindsGraph(),
	}

	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			var fp [32]byte
			got, _, err := decodeArtifact(encodeSnapshot(g, 0, fp), fp)
			if err != nil {
				t.Fatal(err)
			}
			if !sameGraph(got, g) {
				t.Fatalf("round trip diverged:\n got %+v %+v\nwant %+v %+v", got.VProps, got.EdgeL, g.VProps, g.EdgeL)
			}
		})
	}
}

// TestSnapshotFingerprintCoversIdentity: any change to the dataset
// name, scale, seed or generator/format version must change the
// fingerprint — that is the whole invalidation rule of the cache.
func TestSnapshotFingerprintCoversIdentity(t *testing.T) {
	base := SnapshotFingerprint("yeast", 0.01, 42)
	if got := SnapshotFingerprint("mico", 0.01, 42); got == base {
		t.Error("fingerprint ignores dataset name")
	}
	if got := SnapshotFingerprint("yeast", 0.02, 42); got == base {
		t.Error("fingerprint ignores scale")
	}
	if got := SnapshotFingerprint("yeast", 0.01, 43); got == base {
		t.Error("fingerprint ignores seed")
	}
	if got := SnapshotFingerprint("yeast", 0.01, 42); got != base {
		t.Error("fingerprint is not deterministic")
	}
}

func TestAcquireColdThenWarm(t *testing.T) {
	dir := t.TempDir()
	g1, st1, err := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st1.Hit || !st1.Stored || st1.Err != nil {
		t.Fatalf("cold acquire: %+v", st1)
	}
	g2, st2, err := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Hit || st2.Stored || st2.Err != nil {
		t.Fatalf("warm acquire: %+v", st2)
	}
	if st1.Path != st2.Path {
		t.Fatalf("paths differ: %s vs %s", st1.Path, st2.Path)
	}
	if !reflect.DeepEqual(g1.VProps, g2.VProps) || !reflect.DeepEqual(g1.EdgeL, g2.EdgeL) {
		t.Fatal("cached graph differs from generated one")
	}
	// The cache is content-addressed per (name, scale): another scale
	// must produce a second artifact, not overwrite the first.
	_, st3, err := AcquireWith("yeast", 2*snapTestScale, AcquireOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Path == st1.Path {
		t.Fatal("different scale mapped to the same artifact path")
	}
	// No cache dir: plain generation, no artifact.
	_, st4, err := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: ""})
	if err != nil {
		t.Fatal(err)
	}
	if st4.Hit || st4.Stored || st4.Path != "" {
		t.Fatalf("uncached acquire touched the cache: %+v", st4)
	}
	if _, _, err := AcquireWith("no-such-dataset", 1, AcquireOptions{CacheDir: dir}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

// TestAcquireTruncatedSnapshot: a half-written artifact (the footprint
// of a crash without the atomic rename, or of disk corruption) must
// fall back to regeneration and heal the artifact.
func TestAcquireTruncatedSnapshot(t *testing.T) {
	dir := t.TempDir()
	g1, st1, err := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(st1.Path)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{0, 3, snapshotHeaderLen - 1, snapshotHeaderLen + 10, len(raw) - 1} {
		if err := os.WriteFile(st1.Path, raw[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		g, st, err := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if st.Hit {
			t.Fatalf("truncated artifact (%d bytes) served as a hit", keep)
		}
		if st.Err == nil || !st.Stored {
			t.Fatalf("truncated artifact (%d bytes) not reported+healed: %+v", keep, st)
		}
		if !reflect.DeepEqual(g.VProps, g1.VProps) || !reflect.DeepEqual(g.EdgeL, g1.EdgeL) {
			t.Fatal("regenerated graph differs")
		}
		// The artifact must be healed: next acquire hits.
		if _, st, _ := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir}); !st.Hit {
			t.Fatalf("artifact not healed after truncation to %d bytes", keep)
		}
	}
}

// TestAcquireFingerprintMismatch: an artifact whose embedded
// fingerprint differs from the expected one — the on-disk footprint of
// a changed generator version, seed or scale landing on the same path —
// must never be served.
func TestAcquireFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	_, st1, err := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(st1.Path)
	if err != nil {
		t.Fatal(err)
	}
	// An unrecognised format version (raw[4]) or a foreign fingerprint
	// (raw[5], its first byte) is reported, regenerated and healed in
	// place: the next acquire hits the rewritten artifact.
	for _, c := range []struct {
		at   int
		want string
	}{{4, "snapshot format"}, {5, "fingerprint mismatch"}} {
		bad := bytes.Clone(raw)
		bad[c.at] ^= 0xFF
		if err := os.WriteFile(st1.Path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, st, err := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if st.Hit || !st.Stored {
			t.Fatalf("byte %d: artifact served or not healed: %+v", c.at, st)
		}
		if st.Err == nil || !strings.Contains(st.Err.Error(), c.want) {
			t.Fatalf("byte %d: %q not surfaced: %v", c.at, c.want, st.Err)
		}
		g, st, err := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir})
		if err != nil || !st.Hit || !sameGraph(g, Yeast(snapTestScale)) {
			t.Fatalf("byte %d: healed artifact: hit %v, err %v", c.at, st.Hit, err)
		}
	}

	// Corrupted payload byte: CRC must catch it.
	raw2, err := os.ReadFile(st1.Path)
	if err != nil {
		t.Fatal(err)
	}
	raw2[len(raw2)-1] ^= 0x01
	if err := os.WriteFile(st1.Path, raw2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, st, _ := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir}); st.Hit || st.Err == nil {
		t.Fatalf("corrupt payload served: %+v", st)
	}
}

// TestAcquireRejectsBadScale: a scale that is not finite and positive,
// or at which some dataset would outgrow its CSR's int32 indexes, is an
// error from both acquire paths, and leaves no artifact behind. Yeast
// at the first scale above the limit is still a small graph.
func TestAcquireRejectsBadScale(t *testing.T) {
	dir := t.TempDir()
	aboveLimit := math.Nextafter(maxScale(), math.Inf(1))
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, 1e300, aboveLimit} {
		if _, _, err := AcquireWith("yeast", scale, AcquireOptions{CacheDir: dir}); err == nil {
			t.Errorf("AcquireWith accepted scale %v", scale)
		}
		if _, _, err := AcquireCSR("yeast", scale, AcquireOptions{CacheDir: dir}); err == nil {
			t.Errorf("AcquireCSR accepted scale %v", scale)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("cache dir after rejected acquires: %v entries, err %v", len(entries), err)
	}
}

// TestAcquireConcurrentReaders: many goroutines acquiring the same
// cold entry must all get equivalent graphs, and the artifact must be
// valid afterwards — the atomic temp-file+rename protocol at work.
func TestAcquireConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	const readers = 8
	graphs := make([]*core.Graph, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			graphs[i], _, errs[i] = AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir})
		}(i)
	}
	wg.Wait()
	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(graphs[i].VProps, graphs[0].VProps) || !reflect.DeepEqual(graphs[i].EdgeL, graphs[0].EdgeL) {
			t.Fatalf("reader %d got a different graph", i)
		}
	}
	// Exactly one artifact, no leftover temp files, and it is valid.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	if len(files) != 1 || !strings.HasSuffix(files[0], ".gsnp") {
		t.Fatalf("cache dir contents after concurrent acquire: %v", files)
	}
	if _, st, _ := AcquireWith("yeast", snapTestScale, AcquireOptions{CacheDir: dir}); !st.Hit {
		t.Fatal("artifact invalid after concurrent acquire")
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

// testSection is one section body for buildArtifact.
type testSection struct {
	id   uint32
	body []byte
}

// buildArtifact frames arbitrary section bodies as a v2 artifact with
// a valid header and directory (magic, version, fingerprint, size,
// alignment, directory and per-section CRCs) — for adversarial decoder
// tests: everything outer validation accepts, with contents only the
// decoder can judge.
func buildArtifact(fp [32]byte, secs []testSection) []byte {
	dirEnd := snapshotHeaderLen + len(secs)*sectionEntryLen
	off := align8(dirEnd + 4)
	offs := make([]int, len(secs))
	for i, s := range secs {
		offs[i] = off
		off = align8(off + len(s.body))
	}
	fileSize := dirEnd + 4
	if len(secs) > 0 {
		fileSize = offs[len(secs)-1] + len(secs[len(secs)-1].body)
	}
	out := append([]byte(snapshotMagic), snapshotVersion)
	out = append(out, fp[:]...)
	out = binary.BigEndian.AppendUint64(out, uint64(fileSize))
	out = binary.BigEndian.AppendUint32(out, uint32(len(secs)))
	for i, s := range secs {
		out = binary.BigEndian.AppendUint32(out, s.id)
		out = binary.BigEndian.AppendUint64(out, uint64(offs[i]))
		out = binary.BigEndian.AppendUint64(out, uint64(len(s.body)))
		out = binary.BigEndian.AppendUint32(out, crc32.Checksum(s.body, crcTable))
	}
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
	for i, s := range secs {
		for len(out) < offs[i] {
			out = append(out, 0)
		}
		out = append(out, s.body...)
	}
	return out
}

// edgelessSections builds the full section set of a graph with n
// vertices, no edges and no labels, with caller-supplied strtab and
// property section bodies — the minimal scaffold for poisoning one
// section at a time.
func edgelessSections(n int, strtab, vprops, eprops []byte) []testSection {
	zeros := make([]int32, n+1)
	var meta []byte
	meta = enc.Uvarint(meta, 0)         // rawJSON
	meta = enc.Uvarint(meta, uint64(n)) // V
	meta = enc.Uvarint(meta, 0)         // E
	meta = enc.Uvarint(meta, 0)         // labels
	meta = enc.Uvarint(meta, 0)         // VPropTotal
	meta = enc.Uvarint(meta, 0)         // EPropTotal
	return []testSection{
		{secMeta, meta},
		{secLabels, enc.Uvarint(nil, 0)},
		{secOutOff, encodeInt32s(zeros)},
		{secInOff, encodeInt32s(zeros)},
		{secUndOff, encodeInt32s(zeros)},
		{secUndAdj, nil},
		{secLabelIx, nil},
		{secLabelOff, encodeInt32s([]int32{0})},
		{secLabelAdj, nil},
		{secEdgeSrc, nil},
		{secEdgeDst, nil},
		{secStrTab, strtab},
		{secVProps, vprops},
		{secEProps, eprops},
	}
}

// poisonedDeltaArtifacts returns CRC-valid artifacts whose property
// block carries a huge index delta (a legal 10-byte LEB128 encoding of
// 1<<63): once among a column's entries, once in the empty-props list.
func poisonedDeltaArtifacts() [][]byte {
	var fp [32]byte
	var strtab []byte
	strtab = enc.Uvarint(strtab, 1) // one string, "k"
	strtab = enc.Uvarint(strtab, 1)
	strtab = append(strtab, 'k')
	// Vertex prop section: 1 column (key id 0), one shard block.
	var vprops []byte
	vprops = enc.Uvarint(vprops, 1)
	vprops = enc.Uvarint(vprops, 0)
	var blk []byte
	blk = enc.Uvarint(blk, 1)     // one entry
	blk = enc.Uvarint(blk, 1<<63) // poisoned delta
	blk = append(blk, snapNil)    // value
	blk = enc.Uvarint(blk, 0)     // no empties
	vprops = enc.Uvarint(vprops, uint64(len(blk)))
	vprops = append(vprops, blk...)
	eprops := enc.Uvarint(nil, 0) // 0 columns, no blocks (E=0)
	inEntries := buildArtifact(fp, edgelessSections(2, strtab, vprops, eprops))

	vprops = enc.Uvarint(nil, 0) // 0 columns
	blk = blk[:0]
	blk = enc.Uvarint(blk, 1)     // one empty marker
	blk = enc.Uvarint(blk, 1<<63) // poisoned delta
	vprops = enc.Uvarint(vprops, uint64(len(blk)))
	vprops = append(vprops, blk...)
	inEmpties := buildArtifact(fp, edgelessSections(2, enc.Uvarint(nil, 0), vprops, eprops))
	return [][]byte{inEntries, inEmpties}
}

// TestSnapshotMalformedDeltaDoesNotPanic: a poisoned delta must decode
// to an error, not a wrapped-negative slice index and a process panic.
func TestSnapshotMalformedDeltaDoesNotPanic(t *testing.T) {
	for i, raw := range poisonedDeltaArtifacts() {
		if _, _, err := decodeArtifact(raw, [32]byte{}); err == nil {
			t.Fatalf("poisoned artifact %d decoded without error", i)
		}
	}
}

// hugeCountArtifacts returns a tiny CRC-valid artifact declaring
// astronomically many vertices, and g's artifact twice: with its file
// size field raised far beyond the bytes present, and with a corrupted
// directory entry.
func hugeCountArtifacts(g *core.Graph) [][]byte {
	var fp [32]byte
	var meta []byte
	meta = enc.Uvarint(meta, 0)     // rawJSON
	meta = enc.Uvarint(meta, 1<<34) // absurd V for a file this small
	meta = enc.Uvarint(meta, 0)
	meta = enc.Uvarint(meta, 0)
	meta = enc.Uvarint(meta, 0)
	meta = enc.Uvarint(meta, 0)
	absurd := buildArtifact(fp, []testSection{{secMeta, meta}})
	oversized := encodeSnapshot(g, 0, fp)
	binary.BigEndian.PutUint64(oversized[37:45], 1<<39)
	badDir := encodeSnapshot(g, 0, fp)
	badDir[snapshotHeaderLen+2] ^= 0x01
	return [][]byte{absurd, oversized, badDir}
}

// TestSnapshotHugeCountsRejectedCheaply: an absurd vertex count must be
// rejected by the size-proportional bound — and then by the exact
// section-length checks — before any large allocation; an oversized
// file size field must fail against the actual byte count, not size an
// allocation; a corrupted directory entry must fail the directory CRC.
func TestSnapshotHugeCountsRejectedCheaply(t *testing.T) {
	for i, raw := range hugeCountArtifacts(Yeast(snapTestScale)) {
		if _, _, err := decodeArtifact(raw, [32]byte{}); err == nil {
			t.Errorf("artifact %d (absurd count, oversized size field, corrupt directory) accepted", i)
		}
	}
}

// oneEdgeArtifact frames a consistent one-edge graph (0→1 "knows"),
// applying mutate to its sections first.
func oneEdgeArtifact(mutate func(secs []testSection)) []byte {
	blk := enc.Uvarint(nil, 0) // 0 empties
	props := enc.Uvarint(nil, 0)
	props = enc.Uvarint(props, uint64(len(blk)))
	props = append(props, blk...)
	var meta []byte
	meta = enc.Uvarint(meta, 0) // rawJSON
	meta = enc.Uvarint(meta, 2) // V
	meta = enc.Uvarint(meta, 1) // E
	meta = enc.Uvarint(meta, 1) // labels
	meta = enc.Uvarint(meta, 0) // VPropTotal
	meta = enc.Uvarint(meta, 0) // EPropTotal
	var labels []byte
	labels = enc.Uvarint(labels, 1)
	labels = enc.Uvarint(labels, 5)
	labels = append(labels, "knows"...)
	secs := []testSection{
		{secMeta, meta},
		{secLabels, labels},
		{secOutOff, encodeInt32s([]int32{0, 1, 1})},
		{secInOff, encodeInt32s([]int32{0, 0, 1})},
		{secUndOff, encodeInt32s([]int32{0, 1, 2})},
		{secUndAdj, encodeInt32s([]int32{1, 0})},
		{secLabelIx, encodeInt32s([]int32{0})},
		{secLabelOff, encodeInt32s([]int32{0, 1})},
		{secLabelAdj, encodeInt32s([]int32{0})},
		{secEdgeSrc, encodeInt32s([]int32{0})},
		{secEdgeDst, encodeInt32s([]int32{1})},
		{secStrTab, enc.Uvarint(nil, 0)},
		{secVProps, props},
		{secEProps, props},
	}
	mutate(secs)
	return buildArtifact([32]byte{}, secs)
}

// inconsistentArtifacts returns CRC-valid artifacts whose sections
// contradict each other, keyed by the contradiction.
func inconsistentArtifacts() map[string][]byte {
	edgeless := func(mutate func(secs []testSection)) []byte {
		// A 2-vertex edgeless graph needs a 1-byte empty shard block in
		// vprops/eprops (0 columns, 0 empties) to decode cleanly.
		blk := enc.Uvarint(nil, 0)
		props := enc.Uvarint(nil, 0)
		props = enc.Uvarint(props, uint64(len(blk)))
		props = append(props, blk...)
		secs := edgelessSections(2, enc.Uvarint(nil, 0), props, props)
		mutate(secs)
		return buildArtifact([32]byte{}, secs)
	}
	return map[string][]byte{
		"non-monotonic prefix sum": edgeless(func(secs []testSection) {
			secs[2].body = encodeInt32s([]int32{0, 1, 0}) // OutOff dips
		}),
		"prefix sum missing edge total": edgeless(func(secs []testSection) {
			secs[2].body = encodeInt32s([]int32{0, 1, 1}) // claims an edge, E=0
		}),
		"ragged int32 section": edgeless(func(secs []testSection) {
			secs[5].body = []byte{1, 2, 3} // UndAdj length must be 4×count
		}),
		"undirected adjacency out of range": oneEdgeArtifact(func(secs []testSection) { secs[5].body = encodeInt32s([]int32{5, 0}) }),
		"label index out of range":          oneEdgeArtifact(func(secs []testSection) { secs[6].body = encodeInt32s([]int32{7}) }),
		"edge endpoint out of range":        oneEdgeArtifact(func(secs []testSection) { secs[10].body = encodeInt32s([]int32{9}) }),
	}
}

// TestSnapshotInconsistentSectionsRejected: CRC-valid artifacts whose
// sections contradict each other (adjacency out of range, prefix sums
// that do not reach the edge count) must be rejected by the CSR
// validation pass, never served.
func TestSnapshotInconsistentSectionsRejected(t *testing.T) {
	g, _, err := decodeArtifact(oneEdgeArtifact(func([]testSection) {}), [32]byte{})
	if err != nil {
		t.Fatalf("consistent one-edge artifact rejected: %v", err)
	}
	if g.NumVertices() != 2 || g.NumEdges() != 1 || g.EdgeL[0].Label != "knows" {
		t.Fatalf("one-edge artifact decoded wrong: %+v", g.EdgeL)
	}
	for name, raw := range inconsistentArtifacts() {
		if _, _, err := decodeArtifact(raw, [32]byte{}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
