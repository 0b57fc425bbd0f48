// Package fsim is the filesystem seam under the LSM write-ahead log.
// Durability code never touches the os package directly: it writes
// through the FS/File interfaces, so tests can substitute Mem — a
// deterministic in-memory filesystem with seeded failpoints (crash at
// the Nth mutating operation, fail the Nth fsync, tear unsynced writes
// at a seeded byte, drop not-yet-durable renames) — while production
// uses OS, a thin veneer over the real filesystem.
//
// The crash model is deliberately adversarial: bytes written but not
// fsynced may survive partially (a seeded prefix) or not at all, and a
// rename is only durable once a subsequent fsync commits it. Recovery
// code that is correct against Mem is correct against power loss, not
// merely against process death (kill -9 leaves the page cache intact
// and is therefore the *easy* case).
package fsim

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// FS is the filesystem surface the WAL writes through.
// Implementations must return names from ReadDir in sorted order so
// replay visits segments deterministically.
type FS interface {
	// MkdirAll ensures dir and its parents exist.
	MkdirAll(dir string) error
	// ReadDir returns the base names of the regular files directly
	// under dir, sorted ascending. A missing dir is an empty listing.
	ReadDir(dir string) ([]string, error)
	// ReadFile returns the full contents of name (fs.ErrNotExist if absent).
	ReadFile(name string) ([]byte, error)
	// Create opens name truncated to empty, for writing.
	Create(name string) (File, error)
	// Append opens name for appending writes and positional reads,
	// creating it empty if absent.
	Append(name string) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
}

// File is an open handle: appending writes and fsync.
type File interface {
	io.Writer
	// Sync makes every byte written so far durable.
	Sync() error
	// Close releases the handle without syncing.
	Close() error
}

// OS is the production FS: a direct passthrough to the os package.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// ReadDir implements FS.
func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Create implements FS.
func (OS) Create(name string) (File, error) { return os.Create(name) }

// Append implements FS.
func (OS) Append(name string) (File, error) {
	return os.OpenFile(name, os.O_APPEND|os.O_CREATE|os.O_RDWR, 0o644)
}

// Rename implements FS. This is the raw primitive the analyzer-checked
// publish paths in internal/lsm and internal/lsm/wal call through the
// FS interface; the checked-Sync-before-Rename ordering is enforced at
// those call sites, not here.
//
//lint:gdb-allow fsyncrename raw VFS primitive; publish ordering is checked at fsim.FS call sites
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// clean normalizes a path so Mem map lookups agree across spellings.
func clean(name string) string { return filepath.Clean(name) }
