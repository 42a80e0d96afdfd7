//go:build !race

package routing

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
