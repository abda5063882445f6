//go:build race

package wire

// raceEnabled: the race detector makes sync.Pool drop items at random,
// so allocation counts through the pool are not exact under it.
const raceEnabled = true
