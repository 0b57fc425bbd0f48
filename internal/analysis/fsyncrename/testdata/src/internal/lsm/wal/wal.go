// Package wal is fsyncrename analyzer testdata for the VFS extension:
// the package path suffix-matches the VFS scope, so renames
// through the fsim interfaces are held to the same
// checked-Sync-before-Rename contract as os.Rename publishes.
package wal

import "repro/internal/analysis/fsyncrename/testdata/src/internal/lsm/fsim"

// noSync publishes through the VFS without forcing bytes to disk.
func noSync(fsys fsim.FS, f fsim.File, tmp, final string) error {
	if _, err := f.Write([]byte("data")); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, final) // want `\[fsyncrename\] rename without a preceding fsync`
}

// ignoredSync calls the interface Sync but throws the error away.
func ignoredSync(fsys fsim.FS, f fsim.File, tmp, final string) error {
	f.Sync()
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp, final) // want `\[fsyncrename\] rename publishes a file whose Sync error was ignored`
}

// ignoredClose checks Sync but drops the Close error.
func ignoredClose(fsys fsim.FS, f fsim.File, tmp, final string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	f.Close() // want `\[fsyncrename\] Close error ignored before rename`
	return fsys.Rename(tmp, final)
}

// closureSync syncs inside a callback; the publishing body itself
// never checked an fsync, so the rename is still flagged.
func closureSync(fsys fsim.FS, f fsim.File, tmp, final string, run func(func() error)) error {
	run(func() error { return f.Sync() })
	return fsys.Rename(tmp, final) // want `\[fsyncrename\] rename without a preceding fsync`
}

// publish is the real wal.publishPrefix shape: write, Sync (checked),
// Close (checked), rename — with the error-path cleanup closes inside
// a fail closure, whose body is a separate publish scope.
func publish(fsys fsim.FS, path string, data []byte) error {
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

// nonPublish exercises the negatives: Sync and Close without any
// rename in the body are not a publish and stay clean.
func nonPublish(f fsim.File) {
	f.Sync()
	f.Close()
}
