package mpi

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

type killErr struct{ rank int }

func (k killErr) Error() string { return "injected kill" }

// TestRankAbortUnblocksPeers: rank 1 panics while rank 0 is parked in a
// blocking Recv that will never be satisfied. Without the abort protocol
// this deadlocks; with it, Parallel returns a RankError naming rank 1
// and rank 0 unwinds cleanly.
func TestRankAbortUnblocksPeers(t *testing.T) {
	w := NewWorld(2)
	err := w.Parallel(func(c *Comm) {
		if c.Rank() == 1 {
			time.Sleep(10 * time.Millisecond) // let rank 0 park first
			panic(killErr{rank: 1})
		}
		c.Recv(1, 42) // never sent
	})
	if err == nil {
		t.Fatal("Parallel should surface the rank failure")
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("error type %T, want *RankError", err)
	}
	if re.Rank != 1 {
		t.Fatalf("failed rank = %d, want 1", re.Rank)
	}
	var ke killErr
	if !errors.As(err, &ke) {
		t.Fatalf("cause should unwrap to killErr, got %v", re.Cause)
	}
	if len(re.Stack) == 0 {
		t.Fatal("RankError should carry the panic stack")
	}
}

// TestRankAbortUnblocksSender: the converse — rank 1 dies while rank 0
// is parked in a Send against a full mailbox.
func TestRankAbortUnblocksSender(t *testing.T) {
	w := NewWorld(2)
	err := w.Parallel(func(c *Comm) {
		if c.Rank() == 1 {
			time.Sleep(10 * time.Millisecond)
			panic(killErr{rank: 1})
		}
		for i := 0; ; i++ { // fill rank 1's mailbox until blocked
			c.Send(1, 7, []float64{float64(i)}, 8)
		}
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("err = %v, want RankError from rank 1", err)
	}
}

// TestRankAbortUnblocksCollective: a rank dies while peers are inside an
// Allreduce.
func TestRankAbortUnblocksCollective(t *testing.T) {
	w := NewWorld(4)
	err := w.Parallel(func(c *Comm) {
		if c.Rank() == 3 {
			panic(killErr{rank: 3})
		}
		c.AllreduceScalar(1.0)
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 3 {
		t.Fatalf("err = %v, want RankError from rank 3", err)
	}
}

// TestRankAbortWorldIsDead: Parallel on an aborted world returns the
// stored failure without running the body.
func TestRankAbortWorldIsDead(t *testing.T) {
	w := NewWorld(2)
	_ = w.Parallel(func(c *Comm) {
		if c.Rank() == 0 {
			panic(killErr{rank: 0})
		}
		c.Recv(0, 1)
	})
	var ran atomic.Bool
	err := w.Parallel(func(c *Comm) { ran.Store(true) })
	if err == nil || ran.Load() {
		t.Fatalf("aborted world ran body (err=%v, ran=%v)", err, ran.Load())
	}
	if w.Aborted() == nil {
		t.Fatal("Aborted should be permanent")
	}
}

// TestRankAbortStallText: a mailbox stall inside Parallel becomes a
// structured RankError whose message preserves the original stall
// diagnostic text for greppability.
func TestRankAbortStallText(t *testing.T) {
	w := NewWorldWith(2, WorldOptions{MailboxStall: 50 * time.Millisecond})
	err := w.Parallel(func(c *Comm) {
		if c.Rank() != 0 {
			// Rank 1 never receives; rank 0 overflows its mailbox and stalls.
			time.Sleep(time.Second)
			return
		}
		for i := 0; ; i++ {
			c.Send(1, 7, []float64{float64(i)}, 8)
		}
	})
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RankError", err)
	}
	if re.Rank != 0 {
		t.Fatalf("stalled rank = %d, want 0", re.Rank)
	}
	for _, want := range []string{"stalled", "full mailbox", "tag 7"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("stall text lost %q: %v", want, err)
		}
	}
}

// TestRankAbortSuccessIsNil: the no-failure path returns a plain nil,
// not a typed-nil interface.
func TestRankAbortSuccessIsNil(t *testing.T) {
	w := NewWorld(3)
	if err := w.Parallel(func(c *Comm) { c.Barrier() }); err != nil {
		t.Fatalf("healthy Parallel returned %v", err)
	}
	if w.Aborted() != nil {
		t.Fatal("healthy world reports aborted")
	}
}

// faultHookFunc adapts a function to FaultHook.
type faultHookFunc func(src, dst, tag int) (time.Duration, bool)

func (f faultHookFunc) OnSend(src, dst, tag int) (time.Duration, bool) { return f(src, dst, tag) }

// TestFaultHookDelayAndReorder: a reordered message is overtaken by the
// next send but still received correctly via out-of-order matching, and
// a delay fault only slows delivery.
func TestFaultHookDelayAndReorder(t *testing.T) {
	w := NewWorld(2)
	var calls atomic.Int32
	w.SetFaultHook(faultHookFunc(func(src, dst, tag int) (time.Duration, bool) {
		if calls.Add(1) == 1 {
			return 0, true // hold the first message
		}
		return time.Millisecond, false
	}))
	err := w.Parallel(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 100, []float64{11}, 8) // held
			c.Send(1, 200, []float64{22}, 8) // delivered first, then flushes the held one
		} else {
			if got := c.Recv(0, 100)[0]; got != 11 {
				panic("tag 100 payload corrupted")
			}
			if got := c.Recv(0, 200)[0]; got != 22 {
				panic("tag 200 payload corrupted")
			}
		}
	})
	if err != nil {
		t.Fatalf("faulted exchange failed: %v", err)
	}
}

// TestFaultHookReorderFlushedBySenderRecv: a held message must not be
// stranded when the sender's next operation is a receive rather than
// another send.
func TestFaultHookReorderFlushedBySenderRecv(t *testing.T) {
	w := NewWorld(2)
	var fired atomic.Bool
	w.SetFaultHook(faultHookFunc(func(src, dst, tag int) (time.Duration, bool) {
		return 0, fired.CompareAndSwap(false, true)
	}))
	err := w.Parallel(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 100, []float64{33}, 8) // held by the hook
			if got := c.Recv(1, 300)[0]; got != 44 {
				panic("reply payload corrupted")
			}
		} else {
			if got := c.Recv(0, 100)[0]; got != 33 {
				panic("held message corrupted")
			}
			c.Send(0, 300, []float64{44}, 8)
		}
	})
	if err != nil {
		t.Fatalf("reorder-then-recv exchange failed: %v", err)
	}
}
