// The TCP link at its edges: a peer that never reads, an abort while a
// rank is blocked sending to it, a sender that closes right after its
// last frame, and a receive from a peer that has finalized.
package mpi

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gomd/internal/par"
)

// pipeWorld launches rank 0's world of two over a net.Pipe link to
// rank 1's process, whose end of the pipe is never read: every remote
// write blocks until its deadline, an abort, or the link closing.
func pipeWorld(t *testing.T, opts WorldOptions) *World {
	t.Helper()
	near, far := net.Pipe()
	table := []procInfo{{proc: 0, ranks: []int{0}}, {proc: 1, ranks: []int{1}}}
	links := []*peerLink{nil, newPeerLink(1, []int{1}, near, newLinkReader(near))}
	w := launchWorld(2, []int{0}, opts, 42, 0, table, links)
	t.Cleanup(func() {
		w.Close()
		far.Close()
	})
	return w
}

// TestTCPWriteStallFailsTyped: a send to a peer that stopped reading
// fails within the world's MailboxStall with a RankError that says it
// stalled and names the peer process.
func TestTCPWriteStallFailsTyped(t *testing.T) {
	w := pipeWorld(t, WorldOptions{MailboxStall: 50 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		done <- w.Parallel(func(c *Comm) {
			for i := 0; i < 2000; i++ {
				c.Send(1, 1, []float64{float64(i)}, -1)
			}
		})
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("a send to a peer that never reads did not fail within 2s")
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("Parallel returned %v, want a *RankError", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "stalled") || !strings.Contains(msg, "proc 1") {
		t.Fatalf("stall diagnosis lacks \"stalled\" or the proc: %v", err)
	}
}

// TestTCPAbortUnblocksWriter: a rank blocked sending to a peer that
// never reads unwinds with the abort's cause once the world aborts,
// well before the default 30s stall bound.
func TestTCPAbortUnblocksWriter(t *testing.T) {
	w := pipeWorld(t, WorldOptions{})
	done := make(chan error, 1)
	go func() {
		done <- w.Parallel(func(c *Comm) {
			for i := 0; i < 1<<20; i++ {
				c.Send(1, 1, []float64{float64(i)}, -1)
			}
		})
	}()
	time.Sleep(100 * time.Millisecond)
	cause := &RankError{Rank: 1, Cause: "test abort"}
	aborted := time.Now()
	w.Abort(cause)
	select {
	case err := <-done:
		if re, ok := err.(*RankError); !ok || re != cause {
			t.Fatalf("Parallel returned %v, want the abort's cause", err)
		}
		if d := time.Since(aborted); d >= time.Second {
			t.Fatalf("blocked sender unwound %v after the abort, want < 1s", d)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked sender did not unwind within 1s of the abort")
	}
}

// TestTCPCloseAfterSendsDeliversAll: a world that sends K frames and
// closes at once loses none of them, and its peer sees a clean bye
// departure, not an abort.
func TestTCPCloseAfterSendsDeliversAll(t *testing.T) {
	const k = 2000
	co, err := ListenTCP("127.0.0.1:0", 2)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	var sender *World
	var joinErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sender, joinErr = JoinTCP(co.Addr(), []int{1}, WorldOptions{})
	}()
	recv, hostErr := co.Host([]int{0}, WorldOptions{})
	wg.Wait()
	if hostErr != nil || joinErr != nil {
		t.Fatalf("rendezvous: host=%v join=%v", hostErr, joinErr)
	}
	defer recv.Close()

	sent := make(chan error, 1)
	go func() {
		err := sender.Parallel(func(c *Comm) {
			for i := 0; i < k; i++ {
				c.Send(0, 1, []float64{float64(i)}, -1)
			}
		})
		sender.Close()
		sent <- err
	}()
	err = recv.Parallel(func(c *Comm) {
		for i := 0; i < k; i++ {
			if got := c.Recv(1, 1); got[0] != float64(i) {
				panic(fmt.Sprintf("frame %d carried %v", i, got[0]))
			}
		}
	})
	if err != nil {
		t.Fatalf("receiver: %v", err)
	}
	if err := <-sent; err != nil {
		t.Fatalf("sender: %v", err)
	}
	link := recv.net.links[1]
	for deadline := time.Now().Add(2 * time.Second); !link.peerBye.Load(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("receiver never saw the sender's bye")
		}
	}
	time.Sleep(100 * time.Millisecond) // the EOF after the bye lands
	if err := recv.Aborted(); err != nil {
		t.Fatalf("a clean departure aborted the receiver: %v", err)
	}
}

// finishedPeer links rank 0's world of two to rank 1's over loopback,
// with a reader on rank 0's end when read is true. finish makes rank 1
// send v to rank 0 under tag 5 and finalize.
func finishedPeer(t *testing.T, read bool) (w *World, finish func(v float64)) {
	t.Helper()
	near, far := tcpPair(t)
	w = linkedWorld(t, 2, 0, []int{0}, near, read)
	peer := linkedWorld(t, 2, 1, []int{1}, far, true)
	return w, func(v float64) {
		if err := peer.Parallel(func(c *Comm) { c.Send(0, 5, []float64{v}, -1) }); err != nil {
			t.Errorf("peer: %v", err)
		}
		peer.Close()
	}
}

// receiveThenDeparted is rank 0's side of a finishedPeer: it receives v
// and then waits for a message the peer never sent, which must fail the
// world with the departure named.
func receiveThenDeparted(t *testing.T, w *World, v float64) {
	t.Helper()
	received := false
	err := within(t, w, func(c *Comm) {
		if got := c.Recv(1, 5); len(got) != 1 || got[0] != v {
			panic(fmt.Sprintf("the peer's last message carried %v, want [%v]", got, v))
		}
		received = true
		c.Recv(1, 6)
	})
	if !received {
		t.Fatalf("the peer's last message was lost: %v", err)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 ||
		!strings.Contains(err.Error(), "peer finalized while rank 0 was parked in MPI_Wait on rank 1") {
		t.Fatalf("receive after the peer finalized: %v, want rank 1's departure diagnosed", err)
	}
}

// TestTCPPeerFinishedAfterSendDelivers: a message a peer sends right
// before it finalizes is received even when the departure has already
// reached this process, and the next receive from that peer fails with
// the departure named. The rank is kept from polling, so it meets the
// message and the departure together in its park; the park picks among
// ready cases at random, hence the repeats.
func TestTCPPeerFinishedAfterSendDelivers(t *testing.T) {
	vacate := par.Occupy(runtime.GOMAXPROCS(0))
	defer vacate()
	for i := range 20 {
		w, finish := finishedPeer(t, true)
		finish(float64(i))
		select {
		case <-w.net.links[1].fin:
		case <-time.After(5 * time.Second):
			t.Fatal("the peer's departure never reached this process")
		}
		receiveThenDeparted(t, w, float64(i))
	}
}

// TestTCPPeerFinishedWhilePumping: the same holds for a rank that reads
// the link itself while it waits. With a minute to poll, it reads the
// peer's last message, then its bye and the end of the stream, and
// fails the next receive at once instead of polling out the minute.
func TestTCPPeerFinishedWhilePumping(t *testing.T) {
	roomFor(t, 1)
	setPollBudget(t, time.Minute)
	w, finish := finishedPeer(t, false) // no reader: only the rank reads the link
	go func() {
		awaitPoll(w.comms[0])
		finish(7)
	}()
	receiveThenDeparted(t, w, 7)
	if n := polls(w); n != 2 {
		t.Fatalf("%d of the 2 receives polled", n)
	}
}
