//go:build !race

package xpath

const raceEnabled = false
