//go:build race

// Package raceflag tells tests whether the race detector is on: under it
// sync.Pool drops a share of Puts on purpose, so allocation counts through
// a pool are not meaningful.
package raceflag

// Enabled is true in a -race build.
const Enabled = true
