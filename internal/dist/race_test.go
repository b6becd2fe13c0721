//go:build race

package dist

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// share of its Puts on purpose, so allocation counts mean nothing.
const raceEnabled = true
