//go:build !race

package exec

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = false
