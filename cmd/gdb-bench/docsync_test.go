package main

import (
	"flag"
	"testing"

	"repro/internal/docsync"
)

// TestDocSyncFlagsDocumented fails when a gdb-bench flag is missing
// from README.md and docs/ — the drift guard go test ./... runs, so a
// new flag cannot land undocumented.
func TestDocSyncFlagsDocumented(t *testing.T) {
	docsync.FlagsDocumented(t, "../..", func(fs *flag.FlagSet) { defineFlags(fs) })
}
