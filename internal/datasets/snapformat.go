package datasets

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/enc"
	"repro/internal/mmapfile"
)

// This file implements snapshot format v2: an mmap-ready sectioned
// artifact. It lays the graph out as individually CRC'd, 8-byte-aligned
// sections behind a directory, so a memory-mapped (or heap-read)
// artifact can hand core.CSR its arrays without decoding and a
// CSR-only open touches only the sections it needs.
//
// Layout (all header/directory fields big-endian):
//
//	magic    "GSNP"                          4 bytes
//	version  2                               1 byte
//	fp       snapshot fingerprint            32 bytes
//	fileSize total artifact length           8 bytes
//	nsec     section count                   4 bytes
//	directory: nsec entries of
//	    id   section identifier             4 bytes
//	    off  offset from file start         8 bytes
//	    len  section length                 8 bytes
//	    crc  CRC-32C of the section bytes   4 bytes
//	dirCRC   CRC-32C of everything above    4 bytes
//	zero padding to the first 8-aligned offset
//	sections, each starting 8-aligned, zero-padded between
//
// The reader rejects any header it does not recognise — another
// magic, another version, another fingerprint — with an error, and
// AcquireWith then regenerates the dataset and heals the artifact in
// place (the fingerprint, and so the path, does not encode the format
// version).
//
// Sections:
//
//	meta      varints: rawJSON, V, E, L, VPropTotal, EPropTotal
//	labels    varint count, per-label varint length, then one blob
//	outOff/inOff/undOff   CSR degree prefix sums, []int32 LE
//	undAdj                undirected adjacency, []int32 LE
//	labelIx/labelOff/labelAdj  per-edge label ids and the per-label
//	                           CSR slices, []int32 LE
//	edgeSrc/edgeDst       edge endpoint columns, []int32 LE
//	strtab    varint count, per-string varint length, then one blob
//	vprops/eprops   the sharded property encoding: global sorted
//	                column-key list (string-table ids), then one
//	                length-prefixed block per shardSize-sized range
//	                with sparse delta-encoded (index, value) entries
//	                and the range's empty-but-non-nil Props indexes
//
// On a little-endian host with an aligned base (a mapping always
// qualifies; file offsets are 8-aligned and mappings are page-aligned)
// every []int32 section aliases the artifact bytes directly via
// mmapfile.Int32s, and both string blobs alias via mmapfile.String —
// decode allocates the Graph spine and property maps, nothing else.
// Everything aliased is read-only; the mapalias analyzer (gdb-lint)
// machine-checks that in this package. Hosts or buffers that cannot
// alias fall back to copying decode of the same bytes, so mapped and
// heap opens are value-identical by construction.
//
// Values in property blocks carry a one-byte kind tag; strings are
// table ids, ints are zigzag varints, floats 8 raw bytes, bools one
// byte. Blocks cover disjoint ranges, so decode fans out across the
// generation worker pool.

const (
	snapshotMagic   = "GSNP"
	snapshotVersion = 2
	// snapshotHeaderLen = magic + version + fingerprint + fileSize +
	// section count — the fixed prefix before the directory.
	snapshotHeaderLen = 4 + 1 + 32 + 8 + 4
	sectionEntryLen   = 4 + 8 + 8 + 4
	// maxSnapshotFile caps how large an artifact a header can claim —
	// far above any real dataset, low enough that a corrupt length
	// field cannot OOM the process.
	maxSnapshotFile = 1 << 40
	// maxSections bounds the directory: the format defines 14 section
	// ids, so a directory claiming many more is corrupt, and the bound
	// keeps a hostile header from sizing a huge directory allocation.
	maxSections = 64
)

// Section identifiers. The writer emits sections in this order; the
// reader goes through the directory and does not care.
const (
	secMeta = iota + 1
	secLabels
	secOutOff
	secInOff
	secUndOff
	secUndAdj
	secLabelIx
	secLabelOff
	secLabelAdj
	secEdgeSrc
	secEdgeDst
	secStrTab
	secVProps
	secEProps
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var errSnapMalformed = errors.New("snapshot payload malformed")

// --- encoding ---

// stringTable interns strings during encoding.
type stringTable struct {
	ids  map[string]uint64
	list []string
}

func (t *stringTable) id(s string) uint64 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := uint64(len(t.list))
	t.ids[s] = id
	t.list = append(t.list, s)
	return id
}

// Value kind tags of the snapshot encoding (distinct from enc's
// order-preserving tags: snapshots optimize for density, not order).
const (
	snapNil    = 0
	snapString = 1
	snapInt    = 2
	snapFloat  = 3
	snapBool   = 4
)

func appendValue(b []byte, v core.Value, strs *stringTable) []byte {
	switch v.Kind() {
	case core.KindString:
		b = append(b, snapString)
		return enc.Uvarint(b, strs.id(v.Str()))
	case core.KindInt:
		b = append(b, snapInt)
		return enc.Uvarint(b, enc.Zigzag(v.Int()))
	case core.KindFloat:
		b = append(b, snapFloat)
		return binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case core.KindBool:
		if v.Bool() {
			return append(b, snapBool, 1)
		}
		return append(b, snapBool, 0)
	default:
		return append(b, snapNil)
	}
}

func sortedPropKeys(count int, props func(int) core.Props) []string {
	seen := make(map[string]bool)
	var keys []string
	for i := 0; i < count; i++ {
		for k := range props(i) {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// encodeProps serializes one property table in the sharded sparse
// encoding (see the section list above).
func encodeProps(strs *stringTable, count int, props func(int) core.Props) []byte {
	keys := sortedPropKeys(count, props)
	body := enc.Uvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		body = enc.Uvarint(body, strs.id(k))
	}
	for lo := 0; lo < count; lo += shardSize {
		hi := lo + shardSize
		if hi > count {
			hi = count
		}
		var blk []byte
		for _, k := range keys {
			cnt := 0
			for i := lo; i < hi; i++ {
				if _, ok := props(i)[k]; ok {
					cnt++
				}
			}
			blk = enc.Uvarint(blk, uint64(cnt))
			prev := lo
			for i := lo; i < hi; i++ {
				if v, ok := props(i)[k]; ok {
					blk = enc.Uvarint(blk, uint64(i-prev))
					prev = i
					blk = appendValue(blk, v, strs)
				}
			}
		}
		cnt := 0
		for i := lo; i < hi; i++ {
			if p := props(i); p != nil && len(p) == 0 {
				cnt++
			}
		}
		blk = enc.Uvarint(blk, uint64(cnt))
		prev := lo
		for i := lo; i < hi; i++ {
			if p := props(i); p != nil && len(p) == 0 {
				blk = enc.Uvarint(blk, uint64(i-prev))
				prev = i
			}
		}
		body = enc.Uvarint(body, uint64(len(blk)))
		body = append(body, blk...)
	}
	return body
}

// encodeInt32s serializes a []int32 little-endian — the byte order
// mmapfile.Int32s can alias on common hardware.
func encodeInt32s(s []int32) []byte {
	out := make([]byte, 4*len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

// encodeStringBlob serializes a string list as varint count, one
// varint length per string, then all bytes in one blob — so a reader
// can alias every string out of the contiguous blob region.
func encodeStringBlob(list []string) []byte {
	out := enc.Uvarint(nil, uint64(len(list)))
	for _, s := range list {
		out = enc.Uvarint(out, uint64(len(s)))
	}
	for _, s := range list {
		out = append(out, s...)
	}
	return out
}

// encodeSnapshot builds the complete v2 artifact. Encoding is
// deterministic: the same graph always produces the same bytes.
func encodeSnapshot(g *core.Graph, rawJSON int64, fp [32]byte) []byte {
	snap := g.Snapshot()
	n, m := snap.NumVertices(), snap.NumEdges()

	var meta []byte
	meta = enc.Uvarint(meta, uint64(rawJSON))
	meta = enc.Uvarint(meta, uint64(n))
	meta = enc.Uvarint(meta, uint64(m))
	meta = enc.Uvarint(meta, uint64(len(snap.Labels)))
	meta = enc.Uvarint(meta, uint64(snap.VPropTotal))
	meta = enc.Uvarint(meta, uint64(snap.EPropTotal))

	edgeSrc := make([]int32, m)
	edgeDst := make([]int32, m)
	for i := range g.EdgeL {
		edgeSrc[i] = int32(g.EdgeL[i].Src)
		edgeDst[i] = int32(g.EdgeL[i].Dst)
	}

	// The property sections populate the string table, so they are
	// encoded before it is serialized.
	strs := &stringTable{ids: make(map[string]uint64)}
	vprops := encodeProps(strs, n, func(i int) core.Props { return g.VProps[i] })
	eprops := encodeProps(strs, m, func(i int) core.Props { return g.EdgeL[i].Props })

	type section struct {
		id   uint32
		body []byte
	}
	sections := []section{
		{secMeta, meta},
		{secLabels, encodeStringBlob(snap.Labels)},
		{secOutOff, encodeInt32s(snap.OutOff)},
		{secInOff, encodeInt32s(snap.InOff)},
		{secUndOff, encodeInt32s(snap.UndOff)},
		{secUndAdj, encodeInt32s(snap.UndAdj)},
		{secLabelIx, encodeInt32s(snap.LabelIx)},
		{secLabelOff, encodeInt32s(snap.LabelOff)},
		{secLabelAdj, encodeInt32s(snap.LabelAdj)},
		{secEdgeSrc, encodeInt32s(edgeSrc)},
		{secEdgeDst, encodeInt32s(edgeDst)},
		{secStrTab, encodeStringBlob(strs.list)},
		{secVProps, vprops},
		{secEProps, eprops},
	}

	dirEnd := snapshotHeaderLen + len(sections)*sectionEntryLen
	off := align8(dirEnd + 4)
	type placed struct {
		section
		off int
	}
	laid := make([]placed, len(sections))
	for i, s := range sections {
		laid[i] = placed{s, off}
		off = align8(off + len(s.body))
	}
	fileSize := laid[len(laid)-1].off + len(laid[len(laid)-1].section.body)

	out := make([]byte, 0, fileSize)
	out = append(out, snapshotMagic...)
	out = append(out, snapshotVersion)
	out = append(out, fp[:]...)
	out = binary.BigEndian.AppendUint64(out, uint64(fileSize))
	out = binary.BigEndian.AppendUint32(out, uint32(len(sections)))
	for _, s := range laid {
		out = binary.BigEndian.AppendUint32(out, s.id)
		out = binary.BigEndian.AppendUint64(out, uint64(s.off))
		out = binary.BigEndian.AppendUint64(out, uint64(len(s.body)))
		out = binary.BigEndian.AppendUint32(out, crc32.Checksum(s.body, crcTable))
	}
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
	for _, s := range laid {
		for len(out) < s.off {
			out = append(out, 0)
		}
		out = append(out, s.body...)
	}
	return out
}

func align8(n int) int { return (n + 7) &^ 7 }

// --- decoding ---

// artifactView is a parsed v2 artifact: the verified header and
// directory over the raw bytes. Section contents are CRC-checked
// lazily, on access — a CSR-only open never pays for the property
// sections it skips.
type artifactView struct {
	data []byte
	dir  []dirEntry
}

type dirEntry struct {
	id       uint32
	off, ln  uint64
	checksum uint32
}

// parseArtifact verifies, in order: magic and version, the embedded
// fingerprint against want (identity — a changed scale, seed or
// generator version must never be served), the claimed file size
// against the actual bytes (truncation), and the directory CRC. The
// section entries themselves are bounds- and alignment-checked; their
// contents are verified on access.
func parseArtifact(data []byte, want [32]byte) (*artifactView, error) {
	if len(data) < snapshotHeaderLen {
		return nil, fmt.Errorf("snapshot truncated: %d header bytes of %d", len(data), snapshotHeaderLen)
	}
	if string(data[:4]) != snapshotMagic {
		return nil, errors.New("not a dataset snapshot (bad magic)")
	}
	if data[4] != snapshotVersion {
		return nil, fmt.Errorf("snapshot format v%d, want v%d", data[4], snapshotVersion)
	}
	var got [32]byte
	copy(got[:], data[5:37])
	if got != want {
		return nil, fmt.Errorf("snapshot fingerprint mismatch (artifact %x…, want %x…): dataset name, scale, seed or generator version differ", got[:6], want[:6])
	}
	fileSize := binary.BigEndian.Uint64(data[37:45])
	if fileSize > maxSnapshotFile {
		return nil, fmt.Errorf("snapshot file size %d implausible", fileSize)
	}
	if fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("snapshot truncated: %d of %d bytes", len(data), fileSize)
	}
	nsec := binary.BigEndian.Uint32(data[45:49])
	if nsec > maxSections {
		return nil, fmt.Errorf("snapshot section count %d implausible", nsec)
	}
	dirEnd := snapshotHeaderLen + int(nsec)*sectionEntryLen
	if dirEnd+4 > len(data) {
		return nil, errors.New("snapshot truncated: directory cut short")
	}
	if crc := crc32.Checksum(data[:dirEnd], crcTable); crc != binary.BigEndian.Uint32(data[dirEnd:dirEnd+4]) {
		return nil, errors.New("snapshot directory CRC mismatch")
	}
	v := &artifactView{data: data, dir: make([]dirEntry, nsec)}
	for i := range v.dir {
		e := data[snapshotHeaderLen+i*sectionEntryLen:]
		d := dirEntry{
			id:       binary.BigEndian.Uint32(e[0:4]),
			off:      binary.BigEndian.Uint64(e[4:12]),
			ln:       binary.BigEndian.Uint64(e[12:20]),
			checksum: binary.BigEndian.Uint32(e[20:24]),
		}
		if d.off%8 != 0 || d.off > uint64(len(data)) || d.ln > uint64(len(data))-d.off {
			return nil, fmt.Errorf("snapshot section %d out of bounds", d.id)
		}
		v.dir[i] = d
	}
	return v, nil
}

// section returns the verified bytes of one section: located through
// the directory and CRC-checked. The returned slice aliases the
// artifact bytes — read-only, like everything derived from a view.
func (v *artifactView) section(id uint32) ([]byte, error) {
	for _, d := range v.dir {
		if d.id != id {
			continue
		}
		b := v.data[d.off : d.off+d.ln]
		if crc32.Checksum(b, crcTable) != d.checksum {
			return nil, fmt.Errorf("snapshot section %d CRC mismatch", id)
		}
		return b, nil
	}
	return nil, fmt.Errorf("snapshot section %d missing", id)
}

// int32Section returns one []int32 section of exactly want values:
// aliased from the artifact bytes when the host and base address
// allow, decoded by copy otherwise. Either path yields identical
// values.
func (v *artifactView) int32Section(id uint32, want int) ([]int32, error) {
	b, err := v.section(id)
	if err != nil {
		return nil, err
	}
	if len(b) != 4*want {
		return nil, errSnapMalformed
	}
	if s, ok := mmapfile.Int32s(b); ok {
		return s, nil
	}
	out := make([]int32, want)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

// stringSection decodes one string-blob section (labels, strtab). The
// strings alias the artifact bytes: one unsafe view over the blob,
// sub-sliced per string — decode allocates the []string spine only.
func (v *artifactView) stringSection(id uint32) ([]string, error) {
	b, err := v.section(id)
	if err != nil {
		return nil, err
	}
	r := &snapReader{b: b}
	count := r.count(len(r.b))
	lens := make([]int, count)
	total := 0
	for i := range lens {
		l := r.count(len(r.b))
		lens[i] = l
		total += l
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != total {
		return nil, errSnapMalformed
	}
	blob := mmapfile.String(r.b)
	out := make([]string, count)
	off := 0
	for i, l := range lens {
		out[i] = blob[off : off+l]
		off += l
	}
	return out, nil
}

// snapMeta is the decoded meta section.
type snapMeta struct {
	rawJSON        int64
	n, m, labels   int
	vPropT, ePropT int
}

func (v *artifactView) meta() (snapMeta, error) {
	b, err := v.section(secMeta)
	if err != nil {
		return snapMeta{}, err
	}
	r := &snapReader{b: b}
	raw := r.uvarint()
	// Every vertex and edge costs at least 4 bytes in its prefix-sum or
	// column section, so the artifact size bounds the counts — a tiny
	// corrupt-but-CRC-valid file fails here instead of attempting a
	// multi-gigabyte allocation. The exact section-length checks follow
	// in int32Section.
	maxObjects := len(v.data) / 4
	mt := snapMeta{
		rawJSON: int64(raw),
		n:       r.count(maxObjects),
		m:       r.count(maxObjects),
		labels:  r.count(maxObjects),
		vPropT:  r.count(len(v.data)),
		ePropT:  r.count(len(v.data)),
	}
	if r.err != nil {
		return snapMeta{}, r.err
	}
	if len(r.b) != 0 {
		return snapMeta{}, errSnapMalformed
	}
	return mt, nil
}

// decodeCSR reconstructs the CSR snapshot from the artifact without
// touching the string table or property sections — the O(touched)
// path behind AcquireCSR and warm mapped opens.
func decodeCSR(v *artifactView) (*core.CSR, int64, error) {
	mt, err := v.meta()
	if err != nil {
		return nil, 0, err
	}
	labels, err := v.stringSection(secLabels)
	if err != nil {
		return nil, 0, err
	}
	if len(labels) != mt.labels {
		return nil, 0, errSnapMalformed
	}
	c := &core.CSR{
		Labels:     labels,
		VPropTotal: mt.vPropT,
		EPropTotal: mt.ePropT,
	}
	load := func(dst *[]int32, id uint32, want int) {
		if err == nil {
			*dst, err = v.int32Section(id, want)
		}
	}
	load(&c.OutOff, secOutOff, mt.n+1)
	load(&c.InOff, secInOff, mt.n+1)
	load(&c.UndOff, secUndOff, mt.n+1)
	load(&c.UndAdj, secUndAdj, 2*mt.m)
	load(&c.LabelIx, secLabelIx, mt.m)
	load(&c.LabelOff, secLabelOff, mt.labels+1)
	load(&c.LabelAdj, secLabelAdj, mt.m)
	if err != nil {
		return nil, 0, err
	}
	if err := validateCSR(c, mt.n, mt.m); err != nil {
		return nil, 0, err
	}
	return c, mt.rawJSON, nil
}

// validateCSR bounds-checks a decoded CSR so a corrupt-but-CRC-valid
// artifact cannot push out-of-range indexes into traversals: prefix
// sums must rise monotonically to the expected totals, adjacency and
// slice entries must stay in range. O(n+m) scans, no allocation.
func validateCSR(c *core.CSR, n, m int) error {
	offs := func(off []int32, total int) bool {
		if off[0] != 0 || int(off[len(off)-1]) != total {
			return false
		}
		for i := 1; i < len(off); i++ {
			if off[i] < off[i-1] {
				return false
			}
		}
		return true
	}
	if !offs(c.OutOff, m) || !offs(c.InOff, m) || !offs(c.UndOff, 2*m) || !offs(c.LabelOff, m) {
		return errSnapMalformed
	}
	for _, w := range c.UndAdj {
		if w < 0 || int(w) >= n {
			return errSnapMalformed
		}
	}
	nl := int32(len(c.Labels))
	for _, l := range c.LabelIx {
		if l < 0 || l >= nl {
			return errSnapMalformed
		}
	}
	for _, e := range c.LabelAdj {
		if e < 0 || int(e) >= m {
			return errSnapMalformed
		}
	}
	return nil
}

// decodeGraph materializes the full Graph from the artifact: the CSR
// sections (adopted as the graph's snapshot, so no rebuild), the edge
// endpoint columns, and the sharded property sections decoded in
// parallel on the generation worker pool.
func decodeGraph(v *artifactView) (*core.Graph, int64, error) {
	c, rawJSON, err := decodeCSR(v)
	if err != nil {
		return nil, 0, err
	}
	n, m := c.NumVertices(), c.NumEdges()
	edgeSrc, err := v.int32Section(secEdgeSrc, m)
	if err != nil {
		return nil, 0, err
	}
	edgeDst, err := v.int32Section(secEdgeDst, m)
	if err != nil {
		return nil, 0, err
	}
	strs, err := v.stringSection(secStrTab)
	if err != nil {
		return nil, 0, err
	}

	g := &core.Graph{}
	if n > 0 {
		g.VProps = make([]core.Props, n)
	}
	if m > 0 {
		g.EdgeL = make([]core.EdgeRec, m)
	}
	edgeErrs := make([]error, shardCount(m))
	forShards(m, func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			s, d := edgeSrc[i], edgeDst[i]
			if s < 0 || int(s) >= n || d < 0 || int(d) >= n {
				edgeErrs[shard] = errSnapMalformed
				return
			}
			g.EdgeL[i].Src = int(s)
			g.EdgeL[i].Dst = int(d)
			g.EdgeL[i].Label = c.Labels[c.LabelIx[i]]
		}
	})
	if err := firstErr(edgeErrs); err != nil {
		return nil, 0, err
	}

	if err := decodePropSection(v, secVProps, strs, n,
		func(i int) core.Props { return g.VProps[i] },
		func(i int, p core.Props) { g.VProps[i] = p }); err != nil {
		return nil, 0, err
	}
	if err := decodePropSection(v, secEProps, strs, m,
		func(i int) core.Props { return g.EdgeL[i].Props },
		func(i int, p core.Props) { g.EdgeL[i].Props = p }); err != nil {
		return nil, 0, err
	}
	g.AdoptSnapshot(c)
	return g, rawJSON, nil
}

// decodePropSection reads one property section: the global column-key
// list, then the shard blocks, decoded in parallel — every block
// writes a disjoint range.
func decodePropSection(v *artifactView, id uint32, strs []string, count int, get func(int) core.Props, set func(int, core.Props)) error {
	b, err := v.section(id)
	if err != nil {
		return err
	}
	r := &snapReader{b: b}
	ncols := r.count(len(r.b))
	keys := make([]string, ncols)
	for i := range keys {
		kid := r.uvarint()
		if r.err == nil && kid >= uint64(len(strs)) {
			r.err = errSnapMalformed
		}
		if r.err != nil {
			return r.err
		}
		keys[i] = strs[kid]
	}
	blocks := r.cutBlocks(count)
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return errSnapMalformed
	}
	errs := make([]error, len(blocks))
	forShards(count, func(shard, lo, hi int) {
		errs[shard] = decodePropBlock(blocks[shard], keys, strs, lo, hi, get, set)
	})
	return firstErr(errs)
}

// snapReader is a bounds-checked cursor over a section payload; the
// first malformed read poisons it, so callers check err once at the
// end of a section instead of at every field.
type snapReader struct {
	b   []byte
	err error
}

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, rest, ok := enc.TakeUvarint(r.b)
	if !ok {
		r.err = errSnapMalformed
		return 0
	}
	r.b = rest
	return x
}

// count reads a length field that at most max items can follow.
func (r *snapReader) count(max int) int {
	x := r.uvarint()
	if r.err == nil && x > uint64(max) {
		r.err = errSnapMalformed
		return 0
	}
	return int(x)
}

func (r *snapReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.err = errSnapMalformed
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

// cutBlocks slices the length-prefixed shard blocks of one section.
func (r *snapReader) cutBlocks(count int) [][]byte {
	blocks := make([][]byte, shardCount(count))
	for s := range blocks {
		blocks[s] = r.bytes(r.count(len(r.b)))
	}
	return blocks
}

// parseValue decodes one tagged value from the front of b. ok is
// false on malformed or truncated input. It is a plain cursor with no
// per-call error-field traffic, which matters in the per-entry loop.
func parseValue(b []byte, strs []string) (core.Value, []byte, bool) {
	if len(b) == 0 {
		return core.Nil, b, false
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case snapNil:
		return core.Nil, b, true
	case snapString:
		id, sz := binary.Uvarint(b)
		if sz <= 0 || id >= uint64(len(strs)) {
			return core.Nil, b, false
		}
		return core.S(strs[id]), b[sz:], true
	case snapInt:
		x, sz := binary.Uvarint(b)
		if sz <= 0 {
			return core.Nil, b, false
		}
		return core.I(enc.Unzigzag(x)), b[sz:], true
	case snapFloat:
		if len(b) < 8 {
			return core.Nil, b, false
		}
		return core.F(math.Float64frombits(binary.BigEndian.Uint64(b))), b[8:], true
	case snapBool:
		if len(b) < 1 {
			return core.Nil, b, false
		}
		return core.B(b[0] != 0), b[1:], true
	default:
		return core.Nil, b, false
	}
}

// decodePropBlock fills the [lo, hi) range of one property table from
// its shard block. get/set access the table (vertex or edge Props);
// maps are created lazily on the first key that lands on an index, so
// indexes without entries stay nil.
func decodePropBlock(blk []byte, keys, strs []string, lo, hi int, get func(int) core.Props, set func(int, core.Props)) error {
	b := blk
	for _, k := range keys {
		nent, sz := binary.Uvarint(b)
		if sz <= 0 || nent > uint64(hi-lo) {
			return errSnapMalformed
		}
		b = b[sz:]
		idx := lo
		for e := uint64(0); e < nent; e++ {
			d, sz := binary.Uvarint(b)
			// Validate the delta before the int conversion: a huge
			// uvarint must surface as a malformed artifact, never as a
			// wrapped-negative index.
			if sz <= 0 || d >= uint64(hi-lo) {
				return errSnapMalformed
			}
			b = b[sz:]
			idx += int(d)
			if idx >= hi {
				return errSnapMalformed
			}
			v, rest, ok := parseValue(b, strs)
			if !ok {
				return errSnapMalformed
			}
			b = rest
			p := get(idx)
			if p == nil {
				p = make(core.Props)
				set(idx, p)
			}
			p[k] = v
		}
	}
	nemp, sz := binary.Uvarint(b)
	if sz <= 0 || nemp > uint64(hi-lo) {
		return errSnapMalformed
	}
	b = b[sz:]
	idx := lo
	for e := uint64(0); e < nemp; e++ {
		d, sz := binary.Uvarint(b)
		if sz <= 0 || d >= uint64(hi-lo) {
			return errSnapMalformed
		}
		b = b[sz:]
		idx += int(d)
		if idx >= hi || get(idx) != nil {
			return errSnapMalformed // out of range, or empty-marked index also has entries
		}
		set(idx, core.Props{})
	}
	if len(b) != 0 {
		return errSnapMalformed
	}
	return nil
}

// firstErr folds per-shard decode errors.
func firstErr(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
