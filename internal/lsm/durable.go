package lsm

import (
	"time"

	"repro/internal/lsm/fsim"
	"repro/internal/lsm/wal"
)

// OpenOptions configure a durable store.
type OpenOptions struct {
	// Store carries the in-memory knobs (flush threshold, compaction
	// trigger, row cache).
	Store Options
	// WAL carries the log knobs (segment size, group commit).
	WAL wal.Options
	// FS is the filesystem the log writes through; nil means the real
	// one (fsim.OS). Tests inject fsim.Mem to simulate crashes.
	FS fsim.FS
	// Now is the clock used for the recovery wall-time counter; nil
	// means time.Now. Injected so tests assert deterministic timings.
	Now func() time.Time
}

// RecoveryStats reports what Open replayed and repaired.
type RecoveryStats struct {
	wal.ReplayStats
	// WallNS is the recovery wall time measured with the injected
	// clock.
	WallNS int64
}

// Open returns a durable store rooted at dir, replaying any existing
// write-ahead log with newest-valid-prefix semantics: a torn tail
// (partial frame, bad CRC, unterminated transaction or bulk load) is
// truncated cleanly, never an error. Replay applies records through
// the same memtable paths as live writes and flushes exactly at the
// logged marks (compacting wherever those flushes did), so the
// recovered store is structurally identical — runs, counters, bytes —
// to the store that wrote the acknowledged prefix. Reopening an
// already-recovered directory is idempotent.
func Open(dir string, o OpenOptions) (*Store, *RecoveryStats, error) {
	if o.FS == nil {
		o.FS = fsim.OS{}
	}
	now := o.Now
	if now == nil {
		now = time.Now
	}
	start := now()

	s := New(o.Store)
	s.replaying = true
	var bulk *Batch // the bulk load being replayed, nil outside one
	w, rst, err := wal.Replay(o.FS, dir, o.WAL, func(op wal.Op) error {
		switch op.Kind {
		case wal.OpBulkBegin:
			bulk = NewBatch(0, 0)
		case wal.OpBulkEnd:
			if err := s.installBulk(bulk); err != nil {
				return err
			}
			bulk = nil
		case wal.OpPut:
			if bulk != nil {
				bulk.Add(op.Key, op.Val)
			} else {
				s.applyPut(op.Key, op.Val)
			}
		case wal.OpDelete:
			s.applyDelete(op.Key)
		case wal.OpFlushMark:
			s.flush()
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	s.replaying = false
	s.wal = w
	return s, &RecoveryStats{ReplayStats: *rst, WallNS: now().Sub(start).Nanoseconds()}, nil
}
