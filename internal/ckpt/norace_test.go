//go:build !race

package ckpt

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
