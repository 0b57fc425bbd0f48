// Package wal is the write-ahead log under internal/lsm's durable
// mode: CRC-32C-framed append-only records with group commit and
// segment rotation. Every value travels inline in its put frame, so a
// store directory holds only wal-*.seg segments (replay ignores any
// other file, such as the empty values.vlog older builds created).
//
// Frame layout (all integers big-endian):
//
//	crc32c(4) | payloadLen(4) | payload = type(1) | body
//
// The CRC covers the payload. Records are acknowledged in batches: an
// fsync runs after GroupCommitOps records or once GroupCommitWindow
// has elapsed since the first unsynced record (checked on the next
// append — the log is single-writer and runs no background goroutine,
// so a quiet log syncs at Close). DurableLSN tracks the last frame an
// fsync has covered; everything past it is acknowledged to the
// in-memory store but not yet to durability.
//
// Atomic units: multi-record store operations (a put plus the flush it
// triggers, an engine-level transaction) are delimited by tx marker
// frames, and bulk loads by bulk markers, so recovery only ever stops
// on a unit boundary — a torn tail can not split a logical operation.
// Single-record units are written bare, marker-free. Compaction is
// never logged: a flush mark implies the compaction that flush
// triggers.
//
// Record types 2 (a value-log pointer) and 5 (an explicit compaction
// mark) are retired: production never wrote them, and replay treats
// such a frame as corruption, truncating the log there like any torn
// tail.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"time"

	"repro/internal/enc"
	"repro/internal/lsm/fsim"
)

// Record types. 2 and 5 are retired (see the package comment).
const (
	recPut       byte = 1 // uvarint keyLen | key | value
	recDelete    byte = 3 // key
	recFlushMark byte = 4
	recTxBegin   byte = 6
	recTxEnd     byte = 7
	recBulkBegin byte = 8
	recBulkEnd   byte = 9 // uvarint pair count
)

const (
	frameHeader = 8
	// maxFrame bounds a frame payload; anything larger is corruption,
	// not data.
	maxFrame = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configure a Writer. Zero fields take defaults.
type Options struct {
	// SegmentBytes rotates the log to a fresh segment file once the
	// current one reaches this size (default 1 MiB). Rotation happens
	// between atomic units, never inside one.
	SegmentBytes int64
	// GroupCommitOps is the record count that forces an fsync
	// (default 64).
	GroupCommitOps int
	// GroupCommitWindow forces an fsync when this much time has
	// passed since the first unsynced record (default 2ms; checked on
	// append).
	GroupCommitWindow time.Duration
	// Now is the clock for the group-commit window (default
	// time.Now). Injected so recovery timing and window behaviour are
	// testable with a fake clock.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.GroupCommitOps <= 0 {
		o.GroupCommitOps = 64
	}
	if o.GroupCommitWindow <= 0 {
		o.GroupCommitWindow = 2 * time.Millisecond
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Writer appends records to the log. It inherits the store's
// single-writer contract: its methods must be called from one
// goroutine at a time.
type Writer struct {
	fs  fsim.FS
	dir string
	o   Options

	seg      fsim.File
	segIdx   int
	segBytes int64

	lsn     int64 // frames written
	durable int64 // frames covered by the last fsync
	syncs   int64

	pending   int // frames since the last fsync
	pendingT0 time.Time

	txDepth  int
	txBuf    []byte
	txFrames int
	bulk     bool

	err error
}

func segName(i int) string { return fmt.Sprintf("wal-%06d.seg", i) }

// Err returns the sticky error: after any append or sync failure the
// writer refuses further work.
func (w *Writer) Err() error { return w.err }

// LSN returns the number of frames written (committed units only —
// frames buffered inside an open transaction do not count yet).
func (w *Writer) LSN() int64 { return w.lsn }

// DurableLSN returns the number of frames the last successful fsync
// covered: the acknowledged-durable prefix of the log.
func (w *Writer) DurableLSN() int64 { return w.durable }

// Syncs returns how many group commits (fsync batches) have run.
func (w *Writer) Syncs() int64 { return w.syncs }

func frameBytes(typ byte, body []byte) []byte {
	buf := make([]byte, frameHeader, frameHeader+1+len(body))
	buf = append(buf, typ)
	buf = append(buf, body...)
	payload := buf[frameHeader:]
	binary.BigEndian.PutUint32(buf[0:4], crc32.Checksum(payload, crcTable))
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(payload)))
	return buf
}

// writeFrames appends framed bytes holding n frames to the segment.
func (w *Writer) writeFrames(b []byte, n int) error {
	if _, err := w.seg.Write(b); err != nil {
		w.err = err
		return err
	}
	w.segBytes += int64(len(b))
	if w.pending == 0 {
		w.pendingT0 = w.o.Now()
	}
	w.pending += n
	w.lsn += int64(n)
	return nil
}

// emit routes one frame: buffered while a transaction is open,
// straight to the segment otherwise (followed by the rotation and
// group-commit checks).
func (w *Writer) emit(typ byte, body []byte) error {
	if w.err != nil {
		return w.err
	}
	b := frameBytes(typ, body)
	if w.txDepth > 0 {
		w.txBuf = append(w.txBuf, b...)
		w.txFrames++
		return nil
	}
	if err := w.writeFrames(b, 1); err != nil {
		return err
	}
	if w.bulk {
		return nil // bulk defers its single fsync to EndBulk
	}
	return w.afterUnit()
}

// afterUnit runs between atomic units: rotate full segments, then
// apply the group-commit policy.
func (w *Writer) afterUnit() error {
	if w.segBytes >= w.o.SegmentBytes {
		return w.rotate()
	}
	if w.pending >= w.o.GroupCommitOps ||
		(w.pending > 0 && w.o.Now().Sub(w.pendingT0) >= w.o.GroupCommitWindow) {
		return w.syncNow()
	}
	return nil
}

func (w *Writer) syncNow() error {
	if err := w.seg.Sync(); err != nil {
		w.err = err
		return err
	}
	w.durable = w.lsn
	w.pending = 0
	w.syncs++
	return nil
}

func (w *Writer) rotate() error {
	if err := w.syncNow(); err != nil {
		return err
	}
	if err := w.seg.Close(); err != nil {
		w.err = err
		return err
	}
	w.segIdx++
	seg, err := w.fs.Append(filepath.Join(w.dir, segName(w.segIdx)))
	if err != nil {
		w.err = err
		return err
	}
	w.seg = seg
	w.segBytes = 0
	return nil
}

// AppendPut logs key→value.
func (w *Writer) AppendPut(key, value []byte) error {
	body := enc.Uvarint(nil, uint64(len(key)))
	body = append(body, key...)
	body = append(body, value...)
	return w.emit(recPut, body)
}

// AppendDelete logs a tombstone for key.
func (w *Writer) AppendDelete(key []byte) error {
	return w.emit(recDelete, key)
}

// AppendFlushMark logs that the store flushed its memtable here.
// Replay flushes exactly at marks, reproducing the run structure.
func (w *Writer) AppendFlushMark() error {
	return w.emit(recFlushMark, nil)
}

// BeginTx opens an atomic unit; frames are buffered until EndTx.
// Nestable: only the outermost pair commits.
func (w *Writer) BeginTx() error {
	if w.err != nil {
		return w.err
	}
	w.txDepth++
	return nil
}

// EndTx closes the unit. A single-frame unit is written bare; a
// multi-frame unit is wrapped in tx markers and written as one blob,
// so recovery either replays all of it or none.
func (w *Writer) EndTx() error {
	if w.err != nil {
		return w.err
	}
	if w.txDepth == 0 {
		w.err = fmt.Errorf("wal: EndTx without BeginTx")
		return w.err
	}
	w.txDepth--
	if w.txDepth > 0 {
		return nil
	}
	buf, n := w.txBuf, w.txFrames
	w.txBuf, w.txFrames = nil, 0
	switch {
	case n == 0:
		return nil
	case n == 1:
		if err := w.writeFrames(buf, 1); err != nil {
			return err
		}
	default:
		blob := frameBytes(recTxBegin, nil)
		blob = append(blob, buf...)
		blob = append(blob, frameBytes(recTxEnd, nil)...)
		if err := w.writeFrames(blob, n+2); err != nil {
			return err
		}
	}
	if w.bulk {
		return nil
	}
	return w.afterUnit()
}

// BeginBulk opens a bulk-load unit: records stream to the segment
// unbuffered, with no interleaved fsyncs, and EndBulk commits the
// whole load with one sync. Recovery discards an unterminated bulk.
func (w *Writer) BeginBulk() error {
	if w.err != nil {
		return w.err
	}
	if w.bulk || w.txDepth > 0 {
		w.err = fmt.Errorf("wal: BeginBulk inside an open unit")
		return w.err
	}
	// The flag goes up before the marker is emitted: a group commit
	// immediately after the BulkBegin frame would advance the durable
	// LSN into an unterminated unit that recovery must discard.
	w.bulk = true
	if err := w.emit(recBulkBegin, nil); err != nil {
		w.bulk = false
		return err
	}
	return nil
}

// EndBulk closes the bulk unit, recording the pair count, and syncs.
func (w *Writer) EndBulk(pairs int) error {
	if w.err != nil {
		return w.err
	}
	if !w.bulk {
		w.err = fmt.Errorf("wal: EndBulk without BeginBulk")
		return w.err
	}
	if err := w.emit(recBulkEnd, enc.Uvarint(nil, uint64(pairs))); err != nil {
		return err
	}
	w.bulk = false
	if err := w.syncNow(); err != nil {
		return err
	}
	if w.segBytes >= w.o.SegmentBytes {
		return w.rotate()
	}
	return nil
}

// Sync forces a group commit of everything appended so far.
func (w *Writer) Sync() error {
	if w.err != nil {
		return w.err
	}
	if w.pending == 0 {
		return nil
	}
	return w.syncNow()
}

// Close syncs outstanding records and releases the files.
func (w *Writer) Close() error {
	err := w.Sync()
	if w.seg != nil {
		if cerr := w.seg.Close(); err == nil {
			err = cerr
		}
		w.seg = nil
	}
	return err
}
