//go:build race

package xpath

// raceEnabled: under the race detector sync.Pool drops a share of Puts on
// purpose, so allocation counts through a pool are not meaningful.
const raceEnabled = true
