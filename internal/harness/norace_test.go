//go:build !race

package harness_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
