package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/enc"
	"repro/internal/lsm/fsim"
)

// OpKind classifies a replayed operation.
type OpKind uint8

// Replayed operation kinds.
const (
	OpPut OpKind = iota + 1
	OpDelete
	OpFlushMark
	OpBulkBegin // followed by the bulk's OpPut stream, then OpBulkEnd
	OpBulkEnd
)

// Op is one replayed operation. Replay only ever delivers completed
// atomic units: a torn transaction or bulk load is discarded whole.
type Op struct {
	Kind OpKind
	Key  []byte
	Val  []byte // an OpPut's value, never nil
}

// ReplayStats counts what recovery found and repaired.
type ReplayStats struct {
	// Records is the number of frames in the kept (valid) prefix,
	// marker frames included — the writer's resumed LSN.
	Records int64
	// Logical operation counts within the kept prefix.
	Puts, Deletes, FlushMarks int64
	BulkLoads, BulkPairs      int64
	// Segments found, and how many trailing ones were dropped whole.
	Segments, SegmentsDropped int
	// BytesTruncated is how much torn/discarded segment tail was cut.
	BytesTruncated int64
}

// unit is an atomic group of operations pending delivery.
type unit struct {
	ops    []Op
	frames int64
}

// Replay scans dir's segments oldest-first, delivers the
// newest-valid-prefix of completed units to apply, truncates whatever
// follows (torn frames, bad CRCs, unterminated units), and returns a Writer positioned to append. A fresh directory
// replays zero records. Replay is idempotent: reopening an
// already-recovered log delivers the same operations and repairs
// nothing further.
func Replay(fsys fsim.FS, dir string, o Options, apply func(Op) error) (*Writer, *ReplayStats, error) {
	o = o.withDefaults()
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, err
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var segs []string
	for _, n := range names {
		switch {
		case strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg"):
			segs = append(segs, n)
		case strings.HasSuffix(n, ".tmp"):
			// Leftover from an interrupted truncation publish.
			if err := fsys.Remove(filepath.Join(dir, n)); err != nil {
				return nil, nil, err
			}
		}
	}
	sort.Strings(segs) // zero-padded indices sort numerically

	st := &ReplayStats{Segments: len(segs)}

	deliver := func(u *unit) error {
		for i := range u.ops {
			op := &u.ops[i]
			switch op.Kind {
			case OpPut:
				st.Puts++
			case OpDelete:
				st.Deletes++
			case OpFlushMark:
				st.FlushMarks++
			case OpBulkBegin:
				st.BulkLoads++
			}
			if err := apply(*op); err != nil {
				return err
			}
		}
		st.Records += u.frames
		return nil
	}

	truncSeg := -1 // segment index where the torn tail starts
	var truncOff int64
	lastKeptSize := int64(0)

scan:
	for si, name := range segs {
		data, err := fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		lastKeptSize = int64(len(data))
		var off, commitOff int64
		var cur *unit
		var inTx, inBulk bool
		torn := func() {
			truncSeg, truncOff = si, commitOff
			lastKeptSize = commitOff
		}
		for off < int64(len(data)) {
			typ, body, end, ok := parseFrame(data, off)
			if !ok {
				torn()
				break scan
			}
			op, valid := decodeRecord(typ, body)
			if !valid {
				torn()
				break scan
			}
			switch typ {
			case recTxBegin:
				if inTx || inBulk || cur != nil {
					torn()
					break scan
				}
				inTx, cur = true, &unit{frames: 1}
			case recTxEnd:
				if !inTx {
					torn()
					break scan
				}
				cur.frames++
				if err := deliver(cur); err != nil {
					return nil, nil, err
				}
				inTx, cur = false, nil
				commitOff = end
			case recBulkBegin:
				if inTx || inBulk || cur != nil {
					torn()
					break scan
				}
				inBulk, cur = true, &unit{frames: 1}
				cur.ops = append(cur.ops, op)
			case recBulkEnd:
				if !inBulk {
					torn()
					break scan
				}
				want, _, _ := enc.TakeUvarint(body)
				if int64(len(cur.ops))-1 != int64(want) {
					torn()
					break scan
				}
				cur.ops = append(cur.ops, op)
				cur.frames++
				st.BulkPairs += int64(want)
				if err := deliver(cur); err != nil {
					return nil, nil, err
				}
				inBulk, cur = false, nil
				commitOff = end
			default:
				if cur != nil {
					cur.ops = append(cur.ops, op)
					cur.frames++
				} else {
					if err := deliver(&unit{ops: []Op{op}, frames: 1}); err != nil {
						return nil, nil, err
					}
					commitOff = end
				}
			}
			off = end
		}
		if truncSeg < 0 && (inTx || inBulk) {
			// Segment ended mid-unit: the unit is torn.
			truncSeg, truncOff = si, commitOff
			lastKeptSize = commitOff
			break scan
		}
	}

	// Repair: rewrite the torn segment to its valid prefix and drop
	// every later segment.
	if truncSeg >= 0 {
		name := segs[truncSeg]
		data, err := fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		if int64(len(data)) > truncOff {
			st.BytesTruncated += int64(len(data)) - truncOff
			if err := publishPrefix(fsys, filepath.Join(dir, name), data[:truncOff]); err != nil {
				return nil, nil, err
			}
		}
		for _, name := range segs[truncSeg+1:] {
			data, err := fsys.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return nil, nil, err
			}
			st.BytesTruncated += int64(len(data))
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				return nil, nil, err
			}
			st.SegmentsDropped++
		}
		segs = segs[:truncSeg+1]
	}

	// Resume the writer on the last kept segment.
	segIdx := 1
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		if _, err := fmt.Sscanf(last, "wal-%d.seg", &segIdx); err != nil {
			return nil, nil, fmt.Errorf("wal: bad segment name %q: %w", last, err)
		}
	} else {
		lastKeptSize = 0
	}
	seg, err := fsys.Append(filepath.Join(dir, segName(segIdx)))
	if err != nil {
		return nil, nil, err
	}
	w := &Writer{
		fs: fsys, dir: dir, o: o,
		seg: seg, segIdx: segIdx, segBytes: lastKeptSize,
		lsn: st.Records, durable: st.Records,
	}
	return w, st, nil
}

// parseFrame decodes the frame starting at off; ok is false for a
// torn or corrupt frame (short header, impossible length, CRC
// mismatch).
func parseFrame(data []byte, off int64) (typ byte, body []byte, end int64, ok bool) {
	rest := data[off:]
	if len(rest) < frameHeader+1 {
		return 0, nil, 0, false
	}
	want := binary.BigEndian.Uint32(rest[0:4])
	plen := int64(binary.BigEndian.Uint32(rest[4:8]))
	if plen < 1 || plen > maxFrame || plen > int64(len(rest))-frameHeader {
		return 0, nil, 0, false
	}
	payload := rest[frameHeader : frameHeader+plen]
	if crc32.Checksum(payload, crcTable) != want {
		return 0, nil, 0, false
	}
	return payload[0], payload[1:], off + frameHeader + plen, true
}

// decodeRecord turns a frame payload into an Op. Marker frames decode
// to zero-value Ops for the caller's state machine; valid is false on
// malformed bodies and on unknown or retired record types.
func decodeRecord(typ byte, body []byte) (Op, bool) {
	switch typ {
	case recPut:
		klen, rest, ok := enc.TakeUvarint(body)
		if !ok || int64(klen) > int64(len(rest)) {
			return Op{}, false
		}
		return Op{
			Kind: OpPut,
			Key:  append([]byte(nil), rest[:klen]...),
			// Non-nil even when empty: a nil value in a bulk run is a
			// tombstone.
			Val: append([]byte{}, rest[klen:]...),
		}, true
	case recDelete:
		return Op{Kind: OpDelete, Key: append([]byte(nil), body...)}, true
	case recFlushMark:
		return Op{Kind: OpFlushMark}, len(body) == 0
	case recTxBegin, recTxEnd:
		return Op{}, len(body) == 0
	case recBulkBegin:
		return Op{Kind: OpBulkBegin}, len(body) == 0
	case recBulkEnd:
		n, rest, ok := enc.TakeUvarint(body)
		_ = n
		return Op{Kind: OpBulkEnd}, ok && len(rest) == 0
	default:
		return Op{}, false
	}
}

// publishPrefix atomically replaces path with the given prefix of its
// contents: write a temp file, sync it, then rename over the original
// — the checked-Sync-before-Rename contract fsyncrename enforces.
func publishPrefix(fsys fsim.FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		return err
	}
	if _, err := f.Write(data); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, path)
}
