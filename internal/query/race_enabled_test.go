//go:build race

package query

// raceEnabled reports whether this test binary was built with the race
// detector. Allocation counts jitter then: sync.Pool drops a random share
// of Puts, so a pooled machine is rebuilt on some executions.
const raceEnabled = true
