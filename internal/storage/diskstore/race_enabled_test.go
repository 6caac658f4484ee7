//go:build race

package diskstore

// raceEnabled reports whether this test binary was built with the race
// detector; allocation counts skip then, since sync.Pool drops items at
// random under it.
const raceEnabled = true
