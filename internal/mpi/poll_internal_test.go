// The poll phase of a waiting receive: where it runs (the guards), that
// a rank inside it behaves as a parked one does (abort, snapshot, stall
// bound), and that a rank polling a TCP link reads it as its reader
// goroutine would.
package mpi

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
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

// awaitPoll spins until c has entered the poll phase.
func awaitPoll(c *Comm) {
	for c.polls.Load() == 0 {
		runtime.Gosched()
	}
}

// traffic returns a body that runs waiting receives of every kind on
// w's local ranks: a ring exchange, which on a TCP world of two
// processes crosses to the other process at the ring's ends, and an
// allreduce. Every payload is checked. No rank returns before every
// local rank is done receiving, so each receive waits while all of them
// run.
func traffic(w *World) func(*Comm) {
	var received sync.WaitGroup
	received.Add(len(w.local))
	return func(c *Comm) {
		n := c.Size()
		next, prev := (c.Rank()+1)%n, (c.Rank()-1+n)%n
		for i := 0; i < 20; i++ {
			got := c.Sendrecv(next, []float64{float64(i), float64(c.Rank())}, -1, prev, 5)
			if len(got) != 2 || got[0] != float64(i) || got[1] != float64(prev) {
				panic(fmt.Sprintf("round %d from rank %d carried %v", i, prev, got))
			}
		}
		if sum := c.AllreduceScalar(1); sum != float64(n) {
			panic(fmt.Sprintf("allreduce of ones over %d ranks read %v", n, sum))
		}
		received.Done()
		received.Wait()
	}
}

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t *testing.T) (near, far net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	far, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	near = <-accepted
	if near == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() {
		near.Close()
		far.Close()
	})
	return near, far
}

// linkedWorld builds process self (0 or 1) of a world of size whose
// ranks local it hosts; conn links it to the other process, which hosts
// the rest. With read false the link gets no reader goroutine, so a
// frame on it is read only by a rank that pumps the link.
func linkedWorld(t *testing.T, size, self int, local []int, conn net.Conn, read bool) *World {
	t.Helper()
	var remote []int
	for r := 0; r < size; r++ {
		if !slices.Contains(local, r) {
			remote = append(remote, r)
		}
	}
	peer := 1 - self
	table := make([]procInfo, 2)
	table[self] = procInfo{proc: self, ranks: local}
	table[peer] = procInfo{proc: peer, ranks: remote}
	links := make([]*peerLink, 2)
	links[peer] = newPeerLink(peer, remote, conn, newLinkReader(conn))
	tr := newTCPTransport(size, local, WorldOptions{}, 42, self, table, links)
	if read {
		tr.start()
	}
	t.Cleanup(func() { tr.w.Close() })
	return tr.w
}

// wireData is the wire frame of a message from src to dst with tag
// carrying v, for a linkedWorld.
func wireData(src, dst, tag int, v ...float64) []byte {
	return encodeFloat64Frame(frameHeader{kind: frameData, world: 42,
		src: int32(src), dst: int32(dst), tag: int32(tag)}, v)
}

// within runs body on w's ranks and fails the test unless they are done
// within 10 s.
func within(t *testing.T, w *World, body func(*Comm)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.Parallel(body) }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("the ranks did not finish within 10s")
		return nil
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

	t.Run("TCP world polls remote sources", func(t *testing.T) {
		roomFor(t, 4)
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
		if polls(wc) == 0 || polls(wj) == 0 {
			t.Fatalf("receives from remote ranks polled %d and %d times, want both > 0", polls(wc), polls(wj))
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

// TestRecvPollLink: a receive from a rank across a TCP link reads the
// link itself while it polls. Unless a case starts the link's reader
// goroutine, nothing else reads the link, so every frame below reaches
// its rank only because a polling rank read it and acted on it as the
// reader would: data for another local rank, an abort, a snapshot
// request.
func TestRecvPollLink(t *testing.T) {
	setPollBudget(t, time.Minute)

	t.Run("a pump delivers the other local rank's frames", func(t *testing.T) {
		roomFor(t, 2)
		near, far := tcpPair(t)
		w := linkedWorld(t, 3, 0, []int{0, 1}, near, false)
		far.Write(wireData(2, 1, 5, 1))
		far.Write(wireData(2, 0, 5, 2))
		rank0Done := make(chan struct{})
		err := within(t, w, func(c *Comm) {
			if c.Rank() == 0 {
				if got := c.Recv(2, 5); len(got) != 1 || got[0] != 2 {
					panic(fmt.Sprintf("rank 0 received %v, want [2]", got))
				}
				close(rank0Done)
				return
			}
			<-rank0Done
			if n := len(w.inbox[1]); n != 1 {
				panic(fmt.Sprintf("rank 1's mailbox holds %d messages after rank 0's pump, want 1", n))
			}
			if got := c.Recv(2, 5); len(got) != 1 || got[0] != 1 {
				panic(fmt.Sprintf("rank 1 received %v, want [1]", got))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("frames stay whole and in order under two pumping ranks and the reader", func(t *testing.T) {
		roomFor(t, 2)
		const rounds = 200
		near, far := tcpPair(t)
		a := linkedWorld(t, 4, 0, []int{0, 1}, near, true)
		b := linkedWorld(t, 4, 1, []int{2, 3}, far, true)
		send := func(c *Comm) {
			for i := 0; i < rounds; i++ {
				v := make([]float64, 1+(i*37)%3000)
				for j := range v {
					v[j] = float64(i*10 + c.Rank())
				}
				c.Send(c.Rank()-2, 1+i%3, v, -1)
			}
		}
		errc := make(chan error, 1)
		go func() { errc <- b.Parallel(send) }()
		err := within(t, a, func(c *Comm) {
			for i := 0; i < rounds; i++ {
				got := c.Recv(c.Rank()+2, 1+i%3)
				if len(got) != 1+(i*37)%3000 || got[0] != float64(i*10+c.Rank()+2) || got[len(got)-1] != got[0] {
					panic(fmt.Sprintf("rank %d message %d: %d floats, first %v", c.Rank(), i, len(got), got[0]))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if polls(a) == 0 {
			t.Fatal("no receive polled")
		}
	})

	for _, tc := range []struct {
		name   string
		split  int           // bytes of the first frame written first
		before time.Duration // when the first part is written
	}{
		{"split in the header while polling", 10, 5 * time.Millisecond},
		{"split in the payload while polling", frameHeaderLen + 100, 5 * time.Millisecond},
		{"split in the payload after parking", frameHeaderLen + 100, 60 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The pause between the parts outlasts the budget: whichever
			// reader took the first part keeps the read token and finishes
			// the frame, and the poller parks meanwhile or waits in it.
			setPollBudget(t, 20*time.Millisecond)
			roomFor(t, 1)
			near, far := tcpPair(t)
			w := linkedWorld(t, 2, 0, []int{0}, near, true)
			first := make([]float64, 1000)
			for i := range first {
				first[i] = float64(i)
			}
			frame := wireData(1, 0, 5, first...)
			go func() {
				time.Sleep(tc.before)
				far.Write(frame[:tc.split])
				time.Sleep(60 * time.Millisecond)
				far.Write(frame[tc.split:])
				far.Write(wireData(1, 0, 5, -1))
			}()
			err := within(t, w, func(c *Comm) {
				got := c.Recv(1, 5)
				if len(got) != len(first) {
					panic(fmt.Sprintf("the split frame arrived with %d floats, want %d", len(got), len(first)))
				}
				for i, v := range got {
					if v != first[i] {
						panic(fmt.Sprintf("the split frame's float %d reads %v", i, v))
					}
				}
				if got := c.Recv(1, 5); len(got) != 1 || got[0] != -1 {
					panic(fmt.Sprintf("the frame after the split one carried %v, want [-1]", got))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}

	t.Run("an abort read by a pump unwinds the poller", func(t *testing.T) {
		roomFor(t, 1)
		near, far := tcpPair(t)
		a := linkedWorld(t, 2, 0, []int{0}, near, false)
		b := linkedWorld(t, 2, 1, []int{1}, far, true)
		go func() {
			awaitPoll(a.comms[0])
			b.Abort(&RankError{Rank: 1, Cause: "remote failure"})
		}()
		err := within(t, a, func(c *Comm) { c.Recv(1, 7) })
		var re *RankError
		if !errors.As(err, &re) || re.Rank != 1 {
			t.Fatalf("err = %v, want a *RankError from rank 1", err)
		}
		if ra, ok := re.Cause.(RemoteAbort); !ok || ra.Text != "remote failure" {
			t.Fatalf("cause = %#v, want RemoteAbort with the remote text", re.Cause)
		}
	})

	t.Run("a pump answers a snapshot request", func(t *testing.T) {
		roomFor(t, 2)
		near, far := tcpPair(t)
		a := linkedWorld(t, 2, 0, []int{0}, near, false)
		b := linkedWorld(t, 2, 1, []int{1}, far, true)
		done := make(chan error, 1)
		go func() {
			done <- a.Parallel(func(c *Comm) {
				if got := c.Recv(1, 7); len(got) != 1 || got[0] != 3 {
					panic(fmt.Sprintf("received %v, want [3]", got))
				}
			})
		}()
		awaitPoll(a.comms[0])
		if got := b.SnapshotComm()[0].Parked; got == nil || got.Op != "MPI_Wait" || got.Peer != 1 || got.Tag != 7 {
			t.Errorf("the polling rank 0 reads %+v from the peer process, want MPI_Wait on peer 1 tag 7", got)
		}
		if err := b.Parallel(func(c *Comm) { c.Send(0, 7, []float64{3}, -1) }); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the poller never received the message")
		}
	})

	t.Run("frames left in the link's buffer reach ranks that park", func(t *testing.T) {
		// One write puts three frames on the socket, so the pump's first
		// read takes them all into the link's buffer; the receives after
		// it park, with the link's reader waiting on an empty socket.
		roomFor(t, 2)
		near, far := tcpPair(t)
		w := linkedWorld(t, 3, 0, []int{0, 1}, near, true)
		var burst []byte
		for _, f := range [][]byte{wireData(2, 0, 5, 1), wireData(2, 1, 5, 2), wireData(2, 0, 6, 3)} {
			burst = append(burst, f...)
		}
		go func() {
			awaitPoll(w.comms[0])
			far.Write(burst)
		}()
		parked := func(c *Comm, src, tag int) float64 {
			defer par.Occupy(runtime.GOMAXPROCS(0))() // no receive polls
			return c.Recv(src, tag)[0]
		}
		rank0Done := make(chan struct{})
		err := within(t, w, func(c *Comm) {
			if c.Rank() == 0 {
				first := c.Recv(2, 5)[0]
				close(rank0Done)
				if second := parked(c, 2, 6); first != 1 || second != 3 {
					panic(fmt.Sprintf("rank 0 received %v then %v, want 1 then 3", first, second))
				}
				return
			}
			<-rank0Done
			if got := parked(c, 2, 5); got != 2 {
				panic(fmt.Sprintf("rank 1 received %v, want 2", got))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("a pumped frame queues behind the mailbox", func(t *testing.T) {
		// The link's reader delivered x and y before the pump read m, all
		// from rank 1 with tag 5; z arrived after m was read. The receive
		// ends on x, and the next ones find y, then m, then z.
		w := NewWorld(2)
		c := w.comms[0]
		msg := func(v float64) message { return message{src: 1, tag: 5, bytes: 8, f64: []float64{v}} }
		for _, v := range []float64{1, 2, 3} {
			w.inbox[0] <- msg(v)
		}
		m, ok := c.acceptPumped([]message{msg(9)}, 2, 1, 5)
		if !ok || m.f64[0] != 1 {
			t.Fatalf("the wait ended on %v (%v), want the mailbox's first message", m.f64, ok)
		}
		for _, want := range []float64{2, 9, 3} {
			got, ok := c.takePending(1, 5)
			if !ok {
				got, ok = <-w.inbox[0], true
			}
			if got.f64[0] != want {
				t.Fatalf("next message carries %v, want %v", got.f64[0], want)
			}
		}
	})

	t.Run("a link without a descriptor is never pumped", func(t *testing.T) {
		roomFor(t, 1)
		w := pipeWorld(t, WorldOptions{RecvStall: 50 * time.Millisecond})
		err := within(t, w, func(c *Comm) { c.Recv(1, 1) })
		if err == nil || !strings.Contains(err.Error(), "stalled") {
			t.Fatalf("err = %v, want the receive stall", err)
		}
		if n := polls(w); n != 0 {
			t.Fatalf("a receive across a pipe link polled %d times", n)
		}
	})
}
