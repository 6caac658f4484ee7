//go:build !race

package diskstore

const raceEnabled = false
