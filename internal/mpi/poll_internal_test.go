// The poll phase of a waiting receive: where it runs (the guards) and
// that a rank inside it behaves as a parked one does (abort, snapshot,
// stall bound).
package mpi

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gomd/internal/par"
)

// setProcs sets GOMAXPROCS for the rest of the test.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// roomFor sets GOMAXPROCS so that n more rank goroutines keep the
// process within the poll guard, counting any straggler an earlier test
// leaked.
func roomFor(t *testing.T, n int) {
	t.Helper()
	setProcs(t, max(2, par.Occupied()+n))
}

// setPollBudget replaces the receive poll budget for the rest of the
// test; call it while no rank of this test runs.
func setPollBudget(t *testing.T, d time.Duration) {
	t.Helper()
	prev := recvPollBudget
	recvPollBudget = d
	t.Cleanup(func() { recvPollBudget = prev })
}

// polls sums the receives that polled on w's local ranks.
func polls(w *World) (n int64) {
	for _, r := range w.local {
		n += w.comms[r].polls.Load()
	}
	return n
}

// traffic returns a body that runs waiting receives of every kind on
// w's local ranks: a ring exchange, which on a TCP world of two
// processes crosses to the other process at the ring's ends, and an
// allreduce. No rank returns before every local rank is done receiving,
// so each receive waits while all of them run.
func traffic(w *World) func(*Comm) {
	var received sync.WaitGroup
	received.Add(len(w.local))
	return func(c *Comm) {
		n := c.Size()
		next, prev := (c.Rank()+1)%n, (c.Rank()-1+n)%n
		for i := 0; i < 20; i++ {
			c.Sendrecv(next, []float64{float64(i)}, -1, prev, 5)
		}
		c.AllreduceScalar(1)
		received.Done()
		received.Wait()
	}
}

// TestRecvPollGuards: a waiting receive polls only in a world whose
// every rank is in this process, and only while the process runs no
// more compute goroutines than GOMAXPROCS — a worker pool's helpers and
// a straggler leaked after an abort count as well as the ranks.
func TestRecvPollGuards(t *testing.T) {
	t.Run("channel world polls", func(t *testing.T) {
		roomFor(t, 2)
		w := NewWorld(2)
		if err := w.Parallel(traffic(w)); err != nil {
			t.Fatal(err)
		}
		if polls(w) == 0 {
			t.Fatal("a 2-rank channel world with a processor per rank never polled")
		}
	})

	t.Run("TCP world never polls", func(t *testing.T) {
		roomFor(t, 4) // the goroutine count alone would allow the poll
		co, err := ListenTCP("127.0.0.1:0", 4)
		if err != nil {
			t.Fatal(err)
		}
		var wj *World
		var joinErr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			wj, joinErr = JoinTCP(co.Addr(), []int{2, 3}, WorldOptions{})
		}()
		wc, hostErr := co.Host([]int{0, 1}, WorldOptions{})
		wg.Wait()
		if hostErr != nil || joinErr != nil {
			t.Fatalf("rendezvous: host=%v join=%v", hostErr, joinErr)
		}
		defer wc.Close()
		defer wj.Close()
		errc := make(chan error, 2)
		go func() { errc <- wc.Parallel(traffic(wc)) }()
		go func() { errc <- wj.Parallel(traffic(wj)) }()
		for range 2 {
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		}
		if n := polls(wc) + polls(wj); n != 0 {
			t.Fatalf("a world with remote ranks polled %d receives", n)
		}
	})

	t.Run("more ranks than processors never polls", func(t *testing.T) {
		setProcs(t, 2)
		w := NewWorld(4)
		if err := w.Parallel(traffic(w)); err != nil {
			t.Fatal(err)
		}
		if n := polls(w); n != 0 {
			t.Fatalf("4 rank goroutines on 2 processors polled %d receives", n)
		}
	})

	t.Run("pool helpers count", func(t *testing.T) {
		roomFor(t, 2)
		pool := par.NewPool(2) // one helper: 3 compute goroutines with the ranks
		w := NewWorld(2)
		if err := w.Parallel(traffic(w)); err != nil {
			t.Fatal(err)
		}
		if n := polls(w); n != 0 {
			t.Fatalf("a world beside a pool helper polled %d receives past GOMAXPROCS", n)
		}
		pool.Close()
		w = NewWorld(2)
		if err := w.Parallel(traffic(w)); err != nil {
			t.Fatal(err)
		}
		if polls(w) == 0 {
			t.Fatal("the world never polled once the pool was closed")
		}
	})

	t.Run("leaked straggler counts", func(t *testing.T) {
		before := par.Occupied()
		setProcs(t, max(2, before+2))
		hold := make(chan struct{})
		dead := NewWorldWith(2, WorldOptions{StragglerGrace: 10 * time.Millisecond})
		err := dead.Parallel(func(c *Comm) {
			if c.Rank() == 1 {
				panic(killErr{rank: 1})
			}
			<-hold // pure compute: never sees the abort
		})
		if err == nil {
			t.Fatal("Parallel should surface rank 1's failure")
		}
		w := NewWorld(2)
		if err := w.Parallel(traffic(w)); err != nil {
			t.Fatal(err)
		}
		if n := polls(w); n != 0 {
			t.Fatalf("a world beside a leaked straggler polled %d receives past GOMAXPROCS", n)
		}

		// Released, the straggler gives its processor back. Stragglers of
		// earlier tests may leave too, so wait for at most before.
		close(hold)
		for par.Occupied() > before {
			runtime.Gosched()
		}
		w = NewWorld(2)
		if err := w.Parallel(traffic(w)); err != nil {
			t.Fatal(err)
		}
		if polls(w) == 0 {
			t.Fatal("the world never polled once the straggler was gone")
		}
	})
}

// TestRecvPollSemantics: with the poll budget lengthened to a minute,
// every wait below is spent polling, and a polling rank behaves as a
// parked one does.
func TestRecvPollSemantics(t *testing.T) {
	setPollBudget(t, time.Minute)

	// awaitPoll spins until c has entered the poll phase.
	awaitPoll := func(c *Comm) {
		for c.polls.Load() == 0 {
			runtime.Gosched()
		}
	}

	t.Run("peer panic unwinds the poller", func(t *testing.T) {
		roomFor(t, 2)
		// Parallel waits for the poller to unwind, however long it takes.
		w := NewWorldWith(2, WorldOptions{StragglerGrace: -1})
		start := time.Now()
		err := w.Parallel(func(c *Comm) {
			if c.Rank() == 1 {
				awaitPoll(w.comms[0])
				panic(killErr{rank: 1})
			}
			c.Recv(1, 42) // never sent
		})
		// Unwound by the poll's abort check, not after the budget.
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Errorf("the poller unwound after %v", elapsed)
		}
		var re *RankError
		if !errors.As(err, &re) || re.Rank != 1 {
			t.Fatalf("err = %v, want a *RankError from rank 1", err)
		}
		var ke killErr
		if !errors.As(err, &ke) {
			t.Fatalf("cause should unwrap to killErr, got %v", re.Cause)
		}
	})

	t.Run("snapshot names the awaited peer and tag", func(t *testing.T) {
		roomFor(t, 2)
		w := NewWorldWith(2, WorldOptions{StragglerGrace: -1})
		done := make(chan error, 1)
		go func() {
			done <- w.Parallel(func(c *Comm) {
				if c.Rank() == 0 {
					c.Recv(1, 7) // rank 1 hangs instead of sending
					return
				}
				c.ParkInjectedHang()
			})
		}()
		awaitPoll(w.comms[0])
		// The park state is published before the poll starts, so the
		// first snapshot after the poll count moves must show it.
		if got := w.SnapshotComm()[0].Parked; got == nil || got.Op != "MPI_Wait" || got.Peer != 1 || got.Tag != 7 {
			t.Errorf("polling rank 0 reads %+v, want MPI_Wait on peer 1 tag 7", got)
		}
		w.Abort(&RankError{Rank: 1, Cause: errors.New("test abort")})
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("aborted Parallel returned nil")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("the poller did not unwind after the abort")
		}
	})

	t.Run("RecvStall bounds the poll", func(t *testing.T) {
		roomFor(t, 2)
		const stall = 50 * time.Millisecond
		w := NewWorldWith(2, WorldOptions{RecvStall: stall})
		start := time.Now()
		err := w.Parallel(func(c *Comm) {
			if c.Rank() == 0 {
				c.Recv(1, 42) // never sent
			}
		})
		elapsed := time.Since(start)
		var re *RankError
		if !errors.As(err, &re) || re.Rank != 0 {
			t.Fatalf("err = %v, want a *RankError from rank 0", err)
		}
		if msg := err.Error(); !strings.Contains(msg, "stalled 50ms in a blocking receive") || !strings.Contains(msg, "tag 42") {
			t.Errorf("receive-stall text lost: %v", err)
		}
		if polls(w) == 0 {
			t.Error("the receive never polled")
		}
		// RecvStall + budget would be a minute.
		if elapsed > 30*time.Second {
			t.Errorf("stall fired after %v, want about %v", elapsed, stall)
		}
	})
}
