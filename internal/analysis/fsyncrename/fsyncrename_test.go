package fsyncrename_test

import (
	"testing"

	"repro/internal/analysis/atest"
	"repro/internal/analysis/fsyncrename"
)

func TestFsyncrenamePositive(t *testing.T) {
	atest.Run(t, "testdata/src/a", fsyncrename.Analyzer)
}

func TestFsyncrenameCleanPackage(t *testing.T) {
	atest.Run(t, "testdata/src/clean", fsyncrename.Analyzer)
}

// TestFsyncrenameVFSInScope checks the fsim extension: inside the
// VFS scope, FS.Rename/File.Sync/File.Close through the VFS seam
// are publish events under the same contract as the os ones.
func TestFsyncrenameVFSInScope(t *testing.T) {
	atest.Run(t, "testdata/src/internal/lsm/wal", fsyncrename.Analyzer)
}

// TestFsyncrenameVFSOutOfScope pins the boundary: the same VFS calls
// in a package outside the scope produce no diagnostics.
func TestFsyncrenameVFSOutOfScope(t *testing.T) {
	atest.Run(t, "testdata/src/outofscope", fsyncrename.Analyzer)
}
