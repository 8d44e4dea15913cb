//go:build unix

package main

import (
	"errors"
	"syscall"
	"testing"
	"time"
)

// TestWatchSignals: the first SIGINT becomes an interrupted error that
// wraps errInterrupted, once; before it, there is none.
func TestWatchSignals(t *testing.T) {
	interrupted, stop := watchSignals()
	defer stop()
	if err := interrupted(); err != nil {
		t.Fatalf("interrupted before any signal: %v", err)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Skip(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	err := interrupted()
	for err == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		err = interrupted()
	}
	if !errors.Is(err, errInterrupted) {
		t.Errorf("after SIGINT: %v, want errInterrupted", err)
	}
}
