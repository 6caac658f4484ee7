//go:build race

package server

// raceEnabled reports whether this test binary was built with the race
// detector. Allocation counts jitter then: sync.Pool drops a random share
// of Puts, so pooled machines and encoders are rebuilt on some requests.
const raceEnabled = true
