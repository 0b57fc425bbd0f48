package datasets

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// FuzzSnapshot feeds arbitrary bytes to the artifact decoder, each input
// both as given and restamped, so mutations also get past the checksums
// into the section decoders. No input may panic, and an input that
// decodes must yield a graph whose re-encoding decodes to a DeepEqual
// graph.
func FuzzSnapshot(f *testing.F) {
	f.Add(encodeSnapshot(kindsGraph(), 1234, [32]byte{}))
	f.Add(oneEdgeArtifact(func([]testSection) {}))
	seeds := append(poisonedDeltaArtifacts(), hugeCountArtifacts(kindsGraph())...)
	for _, raw := range inconsistentArtifacts() {
		seeds = append(seeds, raw)
	}
	for _, raw := range seeds {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data)
		roundTrip(t, restamp(data))
	})
}

// roundTrip decodes data as an artifact stamped with its own
// fingerprint and, when it decodes, re-encodes the graph and decodes
// that again.
func roundTrip(t *testing.T, data []byte) {
	var fp [32]byte
	if len(data) >= 37 {
		copy(fp[:], data[5:37])
	}
	v, err := parseArtifact(data, fp)
	if err != nil {
		return
	}
	decodeCSR(v) // the CSR-only open must not panic either
	g, raw, err := decodeGraph(v)
	if err != nil {
		return
	}
	again := encodeSnapshot(g, raw, fp)
	v2, err := parseArtifact(again, fp)
	if err != nil {
		t.Fatalf("re-encoded artifact rejected: %v", err)
	}
	g2, raw2, err := decodeGraph(v2)
	if err != nil {
		t.Fatalf("re-encoded artifact does not decode: %v", err)
	}
	if raw2 != raw || !reflect.DeepEqual(g.VProps, g2.VProps) || !reflect.DeepEqual(g.EdgeL, g2.EdgeL) ||
		!bytes.Equal(encodeSnapshot(g2, raw2, fp), again) {
		t.Fatal("re-encoded graph decodes to a different graph")
	}
}

// restamp returns a copy of data with the magic, version, file size,
// in-bounds section CRCs and directory CRC rewritten to match its
// bytes; data too short for a header comes back as it is.
func restamp(data []byte) []byte {
	if len(data) < snapshotHeaderLen {
		return data
	}
	out := bytes.Clone(data)
	copy(out, snapshotMagic)
	out[4] = snapshotVersion
	binary.BigEndian.PutUint64(out[37:45], uint64(len(out)))
	nsec := int(binary.BigEndian.Uint32(out[45:49]))
	dirEnd := snapshotHeaderLen + nsec*sectionEntryLen
	if nsec > maxSections || dirEnd+4 > len(out) {
		return out
	}
	for i := 0; i < nsec; i++ {
		e := out[snapshotHeaderLen+i*sectionEntryLen:]
		off, ln := binary.BigEndian.Uint64(e[4:12]), binary.BigEndian.Uint64(e[12:20])
		if off <= uint64(len(out)) && ln <= uint64(len(out))-off {
			binary.BigEndian.PutUint32(e[20:24], crc32.Checksum(out[off:off+ln], crcTable))
		}
	}
	binary.BigEndian.PutUint32(out[dirEnd:], crc32.Checksum(out[:dirEnd], crcTable))
	return out
}
