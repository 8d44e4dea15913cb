//go:build race

package harness_test

// raceEnabled reports a -race build, under which the engine runs about
// ten times slower.
const raceEnabled = true
