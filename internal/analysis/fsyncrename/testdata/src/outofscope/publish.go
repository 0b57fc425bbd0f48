// Package outofscope pins the VFS scope boundary: this package is not
// in fsyncrename's VFS scope, so renames through the fsim
// interfaces are not publish events here — only os.Rename would be.
// No want comments: the whole file must stay clean.
package outofscope

import "repro/internal/analysis/fsyncrename/testdata/src/internal/lsm/fsim"

// vfsRenameNoSync would be a violation inside internal/lsm; out of
// scope it is invisible to the analyzer.
func vfsRenameNoSync(fsys fsim.FS, f fsim.File, tmp, final string) error {
	f.Close()
	return fsys.Rename(tmp, final)
}
