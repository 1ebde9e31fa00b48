//go:build !race

package ccprof

// raceEnabled reports whether the race detector is compiled in. Under
// -race, sync.Pool discards values at random, so tests that count a
// pooled path's allocations skip.
const raceEnabled = false
