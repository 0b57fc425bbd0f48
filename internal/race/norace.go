//go:build !race

// Package race reports whether the race detector is compiled in, for
// tests whose measurements it perturbs (allocation counts).
package race

// Enabled is true in -race builds.
const Enabled = false
