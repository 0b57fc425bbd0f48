package main

import (
	"flag"
	"testing"

	"repro/internal/docsync"
)

// TestDocSyncFlagsDocumented fails when a gdb-shell flag is missing
// from README.md and docs/ — the same drift guard gdb-bench has.
func TestDocSyncFlagsDocumented(t *testing.T) {
	docsync.FlagsDocumented(t, "../..", func(fs *flag.FlagSet) { defineFlags(fs) })
}
