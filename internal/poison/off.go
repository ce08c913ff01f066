//go:build !race

package poison

// Enabled is true in a race-detector build.
const Enabled = false
