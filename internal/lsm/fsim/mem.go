package fsim

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
)

// ErrCrashed is returned by every operation on a crashed Mem: the
// simulated machine has lost power and the process with it.
var ErrCrashed = errors.New("fsim: filesystem crashed")

// ErrInjected is returned by a failpoint that fails an operation
// without crashing the filesystem (e.g. the Nth fsync reports an I/O
// error; the process survives and must stop acknowledging writes).
var ErrInjected = errors.New("fsim: injected fault")

var errClosed = errors.New("fsim: file closed")

// Faults configures deterministic failpoints. The zero value injects
// nothing. All randomness derives from Seed, so a (Faults, op
// sequence) pair replays identically.
type Faults struct {
	// CrashAtOp > 0 crashes the filesystem in place of the Nth
	// mutating operation (1-based; Create/Append/Write/Sync/Rename/
	// Remove count). The op itself never takes effect.
	CrashAtOp int
	// FailSyncN > 0 makes the Nth Sync call (1-based) return
	// ErrInjected without persisting anything.
	FailSyncN int
	// TearWrites lets a seeded prefix of each file's unsynced tail
	// survive a crash — the torn-write adversary. When false, a crash
	// drops the unsynced tail entirely.
	TearWrites bool
	// DropRenames rolls back renames that no fsync has committed yet
	// when the crash hits, restoring the replaced file.
	DropRenames bool
	// Seed drives tear lengths.
	Seed int64
}

// Mem is a deterministic in-memory FS with a synced-prefix durability
// model: each file tracks how much of it an fsync has made durable,
// and Crash discards (or tears) everything beyond that point.
type Mem struct {
	mu      sync.Mutex
	faults  Faults
	rng     *rand.Rand
	files   map[string]*memFile
	dirs    map[string]bool
	renames []renameEntry
	ops     int
	syncs   int
	crashed bool
	image   map[string][]byte
}

type memFile struct {
	data   []byte
	synced int
}

// renameEntry records a rename not yet committed by an fsync, with
// enough state to roll it back: the moved file object and whatever the
// destination name pointed at before.
type renameEntry struct {
	from, to string
	moved    *memFile
	replaced *memFile
}

// NewMem returns an empty filesystem with the given failpoints armed.
func NewMem(f Faults) *Mem {
	return &Mem{
		faults: f,
		rng:    rand.New(rand.NewSource(f.Seed)),
		files:  make(map[string]*memFile),
		dirs:   make(map[string]bool),
	}
}

// Ops returns the number of mutating operations attempted so far. A
// fault-free dry run's final count bounds the crash matrix: every n in
// [1, Ops()] is a distinct failpoint.
func (m *Mem) Ops() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// Crashed reports whether the filesystem has crashed.
func (m *Mem) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// step counts a mutating op and crashes in its place when the armed
// failpoint is reached. Callers hold m.mu.
func (m *Mem) step() error {
	if m.crashed {
		return ErrCrashed
	}
	m.ops++
	if m.faults.CrashAtOp > 0 && m.ops == m.faults.CrashAtOp {
		m.crashLocked()
		return ErrCrashed
	}
	return nil
}

// Crash simulates power loss now: uncommitted renames roll back (when
// DropRenames is set), unsynced tails are dropped or torn, and every
// subsequent operation fails with ErrCrashed. Idempotent.
func (m *Mem) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.crashed {
		m.crashLocked()
	}
}

func (m *Mem) crashLocked() {
	m.crashed = true
	if m.faults.DropRenames {
		for i := len(m.renames) - 1; i >= 0; i-- {
			e := m.renames[i]
			m.files[e.from] = e.moved
			if e.replaced != nil {
				m.files[e.to] = e.replaced
			} else if m.files[e.to] == e.moved {
				delete(m.files, e.to)
			}
		}
	}
	// Freeze the durable image now so Image() is stable however often
	// it is called. Names are visited sorted so the seeded tear
	// lengths are deterministic.
	m.image = make(map[string][]byte, len(m.files))
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := m.files[name]
		keep := f.synced
		if m.faults.TearWrites && len(f.data) > f.synced {
			keep += m.rng.Intn(len(f.data) - f.synced + 1)
		}
		m.image[name] = append([]byte(nil), f.data[:keep]...)
	}
}

// Image returns the durable state as a fresh, fault-free filesystem —
// what a reboot would find on disk. Calling Image on a live Mem
// crashes it first.
func (m *Mem) Image() *Mem {
	m.mu.Lock()
	if !m.crashed {
		m.crashLocked()
	}
	img := NewMem(Faults{})
	for name, data := range m.image {
		img.files[name] = &memFile{data: append([]byte(nil), data...), synced: len(data)}
	}
	m.mu.Unlock()
	return img
}

// MkdirAll implements FS.
func (m *Mem) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	m.dirs[clean(dir)] = true
	return nil
}

// ReadDir implements FS.
func (m *Mem) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	dir = clean(dir)
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// ReadFile implements FS.
func (m *Mem) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	f, ok := m.files[clean(name)]
	if !ok {
		return nil, fmt.Errorf("fsim: %s: %w", name, fs.ErrNotExist)
	}
	return append([]byte(nil), f.data...), nil
}

// Create implements FS: a truncating create.
func (m *Mem) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return nil, err
	}
	f := &memFile{}
	m.files[clean(name)] = f
	return &memHandle{fs: m, f: f}, nil
}

// Append implements FS: opens for appending, creating if absent. The
// handle follows the file object across renames, like a real fd.
func (m *Mem) Append(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return nil, err
	}
	f, ok := m.files[clean(name)]
	if !ok {
		f = &memFile{}
		m.files[clean(name)] = f
	}
	return &memHandle{fs: m, f: f}, nil
}

// Rename implements FS. The rename is visible immediately but only
// durable once a subsequent Sync commits it (the DropRenames fault
// rolls uncommitted renames back at crash time).
func (m *Mem) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return err
	}
	oldname, newname = clean(oldname), clean(newname)
	f, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("fsim: rename %s: %w", oldname, fs.ErrNotExist)
	}
	m.renames = append(m.renames, renameEntry{from: oldname, to: newname, moved: f, replaced: m.files[newname]})
	m.files[newname] = f
	delete(m.files, oldname)
	return nil
}

// Remove implements FS.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.step(); err != nil {
		return err
	}
	name = clean(name)
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("fsim: remove %s: %w", name, fs.ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

type memHandle struct {
	fs     *Mem
	f      *memFile
	closed bool
}

// Write appends p. When the crash failpoint lands on this op the
// write never happens; tearing of previously-written unsynced bytes is
// applied by the crash itself.
func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, errClosed
	}
	if err := h.fs.step(); err != nil {
		return 0, err
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

// Sync marks the file's current length durable and commits pending
// renames — the journal-commit point of the model. The FailSyncN
// failpoint reports an error and persists nothing.
func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return errClosed
	}
	if err := h.fs.step(); err != nil {
		return err
	}
	h.fs.syncs++
	if h.fs.faults.FailSyncN > 0 && h.fs.syncs == h.fs.faults.FailSyncN {
		return ErrInjected
	}
	h.f.synced = len(h.f.data)
	h.fs.renames = nil
	return nil
}

// Close releases the handle without syncing.
func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}
