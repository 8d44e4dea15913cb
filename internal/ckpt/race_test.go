//go:build race

package ckpt

// raceEnabled reports a -race build: the race detector makes sync.Pool
// drop Puts at random, so allocation bounds that rely on pooling do not
// hold there.
const raceEnabled = true
